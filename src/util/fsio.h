// Durable-output filesystem helpers shared by every writer that must not
// lose (or half-write) a file: the measurement cache, trace/report
// writers, and the per-job stream. One place for the durability discipline —
// create missing parent directories, then fsync the directory so the
// entries themselves survive a crash, not just the file bytes — and for
// the checksummed line format both line logs use.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace actnet::util {

/// fsync(2) the directory containing `path` so a just-created or
/// just-renamed entry is durable. Best effort: directories that cannot be
/// opened (already gone, no permission) are ignored — the caller's own
/// write/rename already succeeded.
void fsync_parent_dir(const std::string& path);

/// Creates every missing directory on `path`'s parent chain and fsyncs the
/// (possibly new) parent. Returns an empty string on success, else a
/// human-readable error naming the path that could not be created. Never
/// throws — writers that run in destructors log the message instead.
std::string ensure_parent_dir(const std::string& path);

/// write(2) until all `n` bytes are out; false on any error but EINTR.
bool write_all(int fd, const char* data, std::size_t n);

/// Seals the payload `buf[start..]` into one checksummed line by appending
/// "\t<crc32hex>\n" (eight lowercase hex digits of the CRC-32 of the
/// payload). Written with one O_APPEND write(2), a crash can tear at most
/// the line being written.
void seal_crc_line(std::string& buf, std::size_t start = 0);

/// Checks one line (without its newline) against the sealed format.
/// Returns true and points `payload` at the text before the CRC suffix when
/// the suffix is present, well-formed and matches; false on any deviation
/// — a torn tail or a flipped byte.
bool open_crc_line(std::string_view line, std::string_view& payload);

}  // namespace actnet::util
