#include "pivot/persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "pivot/support/crc32c.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

void PutU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32(const std::string& data, std::size_t pos) {
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(data[pos + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

[[noreturn]] void IoError(const std::string& what) {
  throw ProgramError("journal file: " + what + ": " + std::strerror(errno));
}

bool TransientErrno(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

// Backoff between retries of one transient failure: the first few retries
// are free (EINTR wants an immediate retry), then short exponential sleeps
// so a flapping device is not hammered.
void BackoffSleep(int failed_attempts) {
  if (failed_attempts < 3) return;
  const int exp = failed_attempts - 3 > 6 ? 6 : failed_attempts - 3;
  std::this_thread::sleep_for(std::chrono::microseconds(1 << exp));
}

}  // namespace

WalWriter WalWriter::Create(const std::string& path) {
  // O_APPEND matters beyond Append(): after a TruncateTo rollback every
  // write must land at the new physical end. A plain O_WRONLY fd would
  // keep its pre-truncate position and punch a zero-filled hole, silently
  // desynchronizing offset_ from the file.
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) IoError("cannot create " + path);
  WalWriter w(fd, 0);
  std::string header(kWalMagic, sizeof kWalMagic);
  PutU32(header, kJournalFormatVersion);
  w.WriteAll(header.data(), header.size());
  w.Sync();
  return w;
}

WalWriter WalWriter::Append(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) IoError("cannot open " + path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    IoError("cannot seek " + path);
  }
  return WalWriter(fd, static_cast<std::uint64_t>(end));
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_), offset_(other.offset_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    offset_ = other.offset_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::WriteAll(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  int failed_attempts = 0;
  while (len > 0) {
    ssize_t n;
    if (FaultInjector::Instance().FailTransient("wal.write.transient")) {
      n = -1;
      errno = EINTR;
    } else {
      n = ::write(fd_, p, len);
    }
    if (n < 0) {
      if (!TransientErrno(errno)) IoError("write failed");
      if (++failed_attempts >= kMaxIoAttempts) {
        IoError("write failed (transient errors exhausted " +
                std::to_string(kMaxIoAttempts) + " attempts)");
      }
      BackoffSleep(failed_attempts);
      continue;
    }
    // A short write is progress, not a fault: advance and keep writing.
    failed_attempts = 0;
    p += n;
    len -= static_cast<std::size_t>(n);
    offset_ += static_cast<std::uint64_t>(n);
  }
}

void WalWriter::Sync(const std::string& point) {
  int failed_attempts = 0;
  for (;;) {
    int rc;
    if (FaultInjector::Instance().FailTransient("wal.fsync.transient")) {
      rc = -1;
      errno = EINTR;
    } else {
      rc = ::fsync(fd_);
    }
    if (rc == 0) break;
    if (!TransientErrno(errno)) IoError("fsync failed");
    if (++failed_attempts >= kMaxIoAttempts) {
      IoError("fsync failed (transient errors exhausted " +
              std::to_string(kMaxIoAttempts) + " attempts)");
    }
    BackoffSleep(failed_attempts);
  }
  if (!point.empty()) PIVOT_FAULT_POINT(point.c_str());
}

void WalWriter::TruncateTo(std::uint64_t offset) {
  PIVOT_CHECK_MSG(offset <= offset_, "TruncateTo beyond the current end");
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    IoError("truncate failed");
  }
  // ftruncate leaves the fd position past the new end. Writers are opened
  // O_APPEND so write(2) ignores it, but reset it anyway: a non-append fd
  // would otherwise resume at the old position and leave a hole of zeros
  // that makes every later frame unreadable at scan time.
  if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    IoError("seek after truncate failed");
  }
  offset_ = offset;
}

void WalWriter::AppendFrame(FrameType type, const std::string& body,
                            bool fsync, const std::string& point_prefix) {
  std::string payload;
  payload.reserve(body.size() + 1);
  payload.push_back(static_cast<char>(type));
  payload += body;

  std::string header;
  PutU32(header, static_cast<std::uint32_t>(payload.size()));
  PutU32(header, Crc32c(payload));

  // The frame goes to disk in three write(2) calls with fault points in
  // between: a fault after any of them leaves a genuinely torn frame (the
  // bytes written so far are really in the file).
  WriteAll(header.data(), header.size());
  PIVOT_FAULT_POINT((point_prefix + ".header.post").c_str());
  const std::size_t half = payload.size() / 2;
  WriteAll(payload.data(), half);
  PIVOT_FAULT_POINT((point_prefix + ".mid").c_str());
  WriteAll(payload.data() + half, payload.size() - half);
  PIVOT_FAULT_POINT((point_prefix + ".post").c_str());
  if (fsync) {
    // The frame is durable but the in-memory commit has not happened yet —
    // a crash at .fsync.post must recover the frame (it was paid for).
    Sync(point_prefix + ".fsync.post");
  }
}

WalScanResult ScanWal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ProgramError("journal file: cannot read " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  WalScanResult result;
  result.file_bytes = data.size();

  const std::size_t header_size = sizeof kWalMagic + 4;
  if (data.size() < header_size ||
      std::memcmp(data.data(), kWalMagic, sizeof kWalMagic) != 0) {
    result.truncation_reason = "missing or corrupt file header";
    return result;
  }
  result.header_ok = true;
  result.version = GetU32(data, sizeof kWalMagic);
  result.valid_bytes = header_size;

  std::size_t pos = header_size;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      result.truncation_reason = "torn frame header";
      break;
    }
    const std::uint32_t len = GetU32(data, pos);
    const std::uint32_t crc = GetU32(data, pos + 4);
    if (len == 0) {
      result.truncation_reason = "empty payload";
      break;
    }
    if (data.size() - pos - 8 < len) {
      result.truncation_reason = "frame exceeds file";
      break;
    }
    const char* payload = data.data() + pos + 8;
    if (Crc32c(std::string_view(payload, len)) != crc) {
      result.truncation_reason = "checksum mismatch";
      break;
    }
    const unsigned char type = static_cast<unsigned char>(payload[0]);
    if (type < static_cast<unsigned char>(FrameType::kGenesis) ||
        type > static_cast<unsigned char>(FrameType::kRetiredDelta)) {
      result.truncation_reason = "unknown frame type";
      break;
    }
    WalFrame frame;
    frame.type = static_cast<FrameType>(type);
    frame.body.assign(payload + 1, len - 1);
    pos += 8 + len;
    frame.end_offset = pos;
    result.frames.push_back(std::move(frame));
    result.valid_bytes = pos;
  }
  return result;
}

void TruncateWal(const std::string& path, std::uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    IoError("truncate failed");
  }
}

}  // namespace pivot
