#include "core/spill_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "persist/crc32.hpp"
#include "persist/io_latency.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain::core::spill {

namespace {

constexpr std::uint32_t kVersion = 2;
constexpr char kMagic[4] = {'E', 'T', 'S', 'P'};

[[noreturn]] void io_error(const std::string& who, const std::string& what,
                           const std::string& path) {
  throw std::runtime_error(who + ": " + what + " " + path +
                           (errno != 0 ? std::string(" (") +
                                             std::strerror(errno) + ")"
                                       : std::string()));
}

/// Workspace span big enough for @p bytes, handed out as char*.
[[nodiscard]] char* scratch_bytes(std::size_t bytes) {
  const auto floats =
      static_cast<std::int64_t>((bytes + sizeof(float) - 1) / sizeof(float));
  return reinterpret_cast<char*>(Workspace::tls().alloc(floats));
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& who, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_error(who, "write failed for", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint32_t write_spill(const std::string& who, const std::string& path,
                          const void* data, std::size_t size) {
  const std::size_t total = kHeaderBytes + size;

  // Assemble the whole file image in the arena: header, then payload, so
  // the spill leaves this thread with a single write() syscall and zero
  // heap traffic once the arena has warmed up.
  WorkspaceScope scope(Workspace::tls());
  char* image = scratch_bytes(total);
  std::memcpy(image + kHeaderBytes, data, size);
  const std::uint32_t crc = persist::crc32(image + kHeaderBytes, size);

  std::memset(image, 0, kHeaderBytes);
  std::memcpy(image, kMagic, sizeof(kMagic));
  std::memcpy(image + 4, &kVersion, sizeof(kVersion));
  std::memcpy(image + 8, &crc, sizeof(crc));
  const auto length = static_cast<std::uint64_t>(size);
  std::memcpy(image + 16, &length, sizeof(length));

  persist::apply_disk_latency();
  errno = 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_error(who, "cannot open", path);
  write_all(fd, image, total, who, path);
  if (::close(fd) != 0) io_error(who, "close failed for", path);
  return crc;
}

void read_spill(const std::string& who, const std::string& path,
                std::size_t size, std::uint32_t crc, void* out) {
  persist::apply_disk_latency();
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_error(who, "cannot open", path);

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    io_error(who, "cannot stat", path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size != kHeaderBytes + size) {
    ::close(fd);
    throw std::runtime_error(
        who + ": spill file " + path +
        " is truncated or corrupt (expected " + std::to_string(size) +
        " payload bytes behind a " + std::to_string(kHeaderBytes) +
        " byte header, found " + std::to_string(file_size) +
        " bytes in total)");
  }

  WorkspaceScope scope(Workspace::tls());
  char* image = scratch_bytes(file_size);
  std::size_t done = 0;
  while (done < file_size) {
    const ssize_t n = ::read(fd, image + done, file_size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      io_error(who, "read failed for", path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);

  // Ground truth is the in-RAM size and CRC recorded at write time: a spill
  // file whose header is self-consistent but belongs to different data
  // (swapped, stale, or rewritten behind our back) must still fail.
  std::uint32_t version = 0;
  std::uint64_t length = 0;
  std::memcpy(&version, image + 4, sizeof(version));
  std::memcpy(&length, image + 16, sizeof(length));
  if (std::memcmp(image, kMagic, sizeof(kMagic)) != 0 || version != kVersion ||
      length != size) {
    throw std::runtime_error(who + ": spill file " + path +
                             " is truncated or corrupt (bad header)");
  }
  if (persist::crc32(image + kHeaderBytes, size) != crc) {
    throw std::runtime_error(
        who + ": spill file " + path +
        " failed its checksum (bit rot or concurrent modification); "
        "refusing to return a corrupt checkpoint");
  }
  std::memcpy(out, image + kHeaderBytes, size);
}

}  // namespace edgetrain::core::spill
