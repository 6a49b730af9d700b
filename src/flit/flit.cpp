#include "rxl/flit/flit.hpp"

#include "rxl/crc/isn_crc.hpp"
#include "rxl/rs/flit_fec.hpp"

namespace rxl::flit {

void seal(Flit& image, std::uint16_t crc_fold) {
  image.set_crc_field(
      crc::IsnCrc().encode(image.crc_protected_region(), crc_fold));
  rs::FlitFec().encode(image.bytes());
}

}  // namespace rxl::flit
