#include "wal/wal_writer.h"

// POSIX file I/O without <fcntl.h>: that header declares `struct flock`,
// which cannot coexist with our `namespace flock` in one translation
// unit. stdio FILE* handles plus fsync/ftruncate from <unistd.h> and
// dirfd from <dirent.h> cover everything the writer needs; every write
// is fflush()ed immediately so bytes reach the kernel even when the
// fsync policy is kNever (a crash simulated with _exit must still see
// them in the page cache).
#include <dirent.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/serialization.h"
#include "wal/fault_injector.h"
#include "wal/wal_format.h"

namespace flock::wal {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " failed for " + path + ": " +
                          std::strerror(errno));
}

Status WriteAll(std::FILE* file, const char* data, size_t len,
                const std::string& path) {
  if (std::fwrite(data, 1, len, file) != len) {
    return Errno("write", path);
  }
  if (std::fflush(file) != 0) return Errno("flush", path);
  return Status::OK();
}

Status FsyncFile(std::FILE* file, const std::string& path) {
  if (::fsync(::fileno(file)) != 0) return Errno("fsync", path);
  return Status::OK();
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  Status s = Status::OK();
  if (::fsync(::dirfd(d)) != 0) s = Errno("fsync dir", dir);
  ::closedir(d);
  return s;
}

/// Writes a fresh WAL (header only) at `path`, truncating anything there,
/// and fsyncs the file and its directory. Returns the open handle.
StatusOr<std::FILE*> CreateLogFile(const std::string& path,
                                   uint64_t epoch) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Errno("open", path);
  std::string header = EncodeWalHeader(epoch);
  Status s = WriteAll(file, header.data(), header.size(), path);
  if (s.ok()) s = FsyncFile(file, path);
  if (s.ok()) s = FsyncDir(DirOf(path));
  if (!s.ok()) {
    std::fclose(file);
    return s;
  }
  return file;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "every_record";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(
    const std::string& path, uint64_t epoch, WalWriterOptions options) {
  auto file = CreateLogFile(path, epoch);
  FLOCK_RETURN_NOT_OK(file.status());
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, *file, epoch, options));
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Resume(
    const std::string& path, uint64_t epoch, uint64_t valid_size,
    WalWriterOptions options, uint64_t records_in_log) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) return Errno("open", path);
  // Drop any torn tail so new records start at a record boundary.
  Status s = Status::OK();
  if (::ftruncate(::fileno(file), static_cast<off_t>(valid_size)) != 0) {
    s = Errno("ftruncate", path);
  }
  if (s.ok() && std::fseek(file, 0, SEEK_END) != 0) {
    s = Errno("seek", path);
  }
  if (s.ok()) s = FsyncFile(file, path);
  if (!s.ok()) {
    std::fclose(file);
    return s;
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path, file, epoch, options));
  writer->epoch_records_.store(records_in_log, std::memory_order_relaxed);
  return writer;
}

WalWriter::WalWriter(std::string path, std::FILE* file, uint64_t epoch,
                     WalWriterOptions options)
    : path_(std::move(path)), options_(options), epoch_(epoch),
      file_(file) {}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    if (health_.ok() && options_.fsync_policy != FsyncPolicy::kNever) {
      ::fsync(::fileno(file_));
    }
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WalWriter::Append(const WalRecord& record) {
  std::string body = EncodeRecordBody(record);
  std::string frame;
  frame.reserve(kRecordHeaderSize + body.size());
  storage::PutU32(&frame, static_cast<uint32_t>(body.size()));
  storage::PutU32(&frame, Crc32(body.data(), body.size()));
  frame.append(body);

  std::unique_lock<std::mutex> lock(mu_);
  FLOCK_RETURN_NOT_OK(health_);
  FaultInjector* faults = FaultInjector::Get();
  Status s = faults->Hit("wal.append.before_write");
  if (s.ok() && faults->WillTrigger("wal.append.partial_write")) {
    // Simulate a torn write: half the frame lands, then the power cut /
    // disk error hits. Recovery must treat the remnant as a torn tail.
    size_t half = frame.size() / 2;
    (void)WriteAll(file_, frame.data(), half, path_);
    (void)FsyncFile(file_, path_);
    s = faults->Hit("wal.append.partial_write");
  }
  if (s.ok()) s = WriteAll(file_, frame.data(), frame.size(), path_);
  if (!s.ok()) {
    if (health_.ok()) health_ = s;
    return s;
  }
  bytes_written_ += frame.size();
  uint64_t seq = ++written_seq_;
  if (options_.fsync_policy == FsyncPolicy::kEveryRecord) {
    FLOCK_RETURN_NOT_OK(WaitSynced(seq, &lock));
  }
  ++records_appended_;
  ++epoch_records_;
  return Status::OK();
}

Status WalWriter::WaitSynced(uint64_t seq,
                             std::unique_lock<std::mutex>* lock) {
  while (synced_seq_ < seq) {
    FLOCK_RETURN_NOT_OK(health_);
    if (!sync_in_flight_) {
      // Lead: one fsync covers every frame written so far. Only the
      // descriptor leaves the lock; file_ stays open because
      // ResetForEpoch runs with no Append or Sync in progress.
      sync_in_flight_ = true;
      uint64_t covers = written_seq_;
      int fd = ::fileno(file_);
      lock->unlock();
      FaultInjector* faults = FaultInjector::Get();
      Status s = faults->Hit("wal.append.before_fsync");
      if (s.ok() && ::fsync(fd) != 0) s = Errno("fsync", path_);
      if (s.ok()) s = faults->Hit("wal.append.after_fsync");
      lock->lock();
      sync_in_flight_ = false;
      if (s.ok()) {
        ++syncs_;
        synced_seq_ = covers;
      } else if (health_.ok()) {
        health_ = s;
      }
      synced_cv_.notify_all();
      FLOCK_RETURN_NOT_OK(s);
    } else {
      synced_cv_.wait(*lock);
    }
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  FLOCK_RETURN_NOT_OK(health_);
  return WaitSynced(written_seq_, &lock);
}

Status WalWriter::ResetForEpoch(uint64_t new_epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  FLOCK_RETURN_NOT_OK(health_);
  if (options_.fsync_policy == FsyncPolicy::kEveryRecord) {
    FLOCK_RETURN_NOT_OK(WaitSynced(written_seq_, &lock));
  }

  std::string tmp = path_ + ".tmp";
  auto file = CreateLogFile(tmp, new_epoch);
  Status s = file.status();
  if (s.ok()) {
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      s = Errno("rename", tmp);
      std::fclose(*file);
      std::remove(tmp.c_str());
    } else {
      s = FsyncDir(DirOf(path_));
    }
  }
  if (!s.ok()) {
    if (health_.ok()) health_ = s;
    return s;
  }
  std::fclose(file_);
  file_ = *file;
  epoch_ = new_epoch;
  epoch_records_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace flock::wal
