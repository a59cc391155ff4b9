#include "support/io.hpp"

#include <errno.h>
#include <unistd.h>

namespace cudanp {

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace cudanp
