#include "util/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "util/crc32.h"

namespace actnet::util {

void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string dir = p.has_parent_path() ? p.parent_path().string() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort: the caller's own write already landed
  ::fsync(fd);
  ::close(fd);
}

std::string ensure_parent_dir(const std::string& path) {
  const std::filesystem::path p(path);
  if (!p.has_parent_path()) return {};
  const std::filesystem::path dir = p.parent_path();
  std::error_code ec;
  if (std::filesystem::exists(dir, ec)) return {};
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return "cannot create parent directory '" + dir.string() + "' for '" +
           path + "': " + ec.message();
  }
  // Make the new entries durable: sync the directory itself (it will hold
  // the caller's file) and the directory holding it.
  fsync_parent_dir((dir / ".").string());
  fsync_parent_dir(dir.string());
  return {};
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ::ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void seal_crc_line(std::string& buf, std::size_t start) {
  const std::string_view payload(buf.data() + start, buf.size() - start);
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc32(payload));
  buf += '\t';
  buf += hex;
  buf += '\n';
}

bool open_crc_line(std::string_view line, std::string_view& payload) {
  const auto sep = line.rfind('\t');
  if (sep == std::string_view::npos || line.size() - sep - 1 != 8)
    return false;
  std::uint32_t want = 0;
  for (const char c : line.substr(sep + 1)) {
    want <<= 4;
    if (c >= '0' && c <= '9') want |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      want |= static_cast<std::uint32_t>(c - 'a' + 10);
    else
      return false;
  }
  if (crc32(line.substr(0, sep)) != want) return false;
  payload = line.substr(0, sep);
  return true;
}

}  // namespace actnet::util
