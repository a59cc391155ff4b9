// Blocking file-descriptor I/O shared by the worker pipe, the journal
// and the artifact cache.
#pragma once

#include <cstddef>

namespace cudanp {

/// Writes all of `n` bytes to `fd`, riding out EINTR and short writes.
/// Returns false on any other write error.
bool write_all(int fd, const char* data, std::size_t n);

}  // namespace cudanp
