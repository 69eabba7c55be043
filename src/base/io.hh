/**
 * @file
 * Checked, injectable byte-sink I/O.
 *
 * The measurement journal (core/journal.hh) is the one place the
 * deterministic stack touches a disk, and the paper's statistical
 * guarantees survive a crash only if that touch is honest: a short
 * write that silently truncates a record, an EINTR that drops bytes,
 * or an fsync whose failure is ignored all turn "durable prefix" into
 * a lie. base::io centralizes the discipline once:
 *
 *  - Sink is the write abstraction: every write() loops over EINTR
 *    and short writes, every sync() retries EINTR, and both report
 *    failures as structured IoResults (ENOSPC is distinguished from
 *    other errors because callers degrade differently on a full disk
 *    than on a dying one).
 *
 *  - FileSink is the production implementation over a plain fd.
 *
 *  - MemorySink captures bytes for tests.
 *
 *  - FaultInjectingSink wraps any sink and fails deterministically
 *    once a cumulative byte budget is exhausted — the write that
 *    crosses the budget is split exactly at the boundary, which is
 *    what a real disk filling up mid-record looks like. A FaultPlan
 *    is one disk: every sink wrapped in it draws on its budget.
 *
 * src/core is linted (statsched-raw-file-io) to route all file I/O
 * through this layer; the raw syscalls live here, in src/base, where
 * the EINTR/short-write discipline is enforced in one audited place.
 */

#ifndef STATSCHED_BASE_IO_HH
#define STATSCHED_BASE_IO_HH

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace statsched
{
namespace base
{
namespace io
{

/** How an I/O operation ended. */
enum class IoStatus : std::uint8_t
{
    Ok = 0,  //!< completed fully
    NoSpace, //!< ENOSPC/EDQUOT: the medium is full
    Error,   //!< any other failure (EIO, EBADF, ...)
};

/** Structured outcome of one I/O operation. */
struct IoResult
{
    IoStatus status = IoStatus::Ok;
    /** errno of the failure; 0 on success or synthetic faults. */
    int error = 0;
    /** Bytes actually transferred before the failure (writes). */
    std::size_t bytesWritten = 0;
    /** Human-readable failure description; empty on success. */
    std::string detail;

    bool ok() const { return status == IoStatus::Ok; }

    /** @return a failure result classified from `err` (errno). */
    static IoResult
    failure(int err, const std::string &operation)
    {
        IoResult r;
        r.status = (err == ENOSPC || err == EDQUOT)
            ? IoStatus::NoSpace
            : IoStatus::Error;
        r.error = err;
        r.detail = operation + ": " +
            (err != 0 ? std::strerror(err) : "failed");
        return r;
    }
};

/**
 * Append-only byte sink with checked writes and durability points.
 */
class Sink
{
  public:
    virtual ~Sink() = default;

    /**
     * Writes all `size` bytes, looping over EINTR and short writes.
     * On failure, IoResult::bytesWritten reports how much of this
     * call reached the sink before the error — the tail of the
     * stream may therefore hold a torn record, which downstream
     * framing (CRCs) must detect.
     */
    virtual IoResult write(const void *data, std::size_t size) = 0;

    /** Flushes written bytes to the durable medium (fsync). */
    virtual IoResult sync() = 0;
};

/**
 * Sink over a plain file descriptor. Open through the factory
 * functions; the constructor is for an already-owned fd.
 */
class FileSink : public Sink
{
  public:
    /** Takes ownership of `fd`. */
    explicit FileSink(int fd) : fd_(fd) {}

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    ~FileSink() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /**
     * Opens `path` for appending; `truncate` first empties (or
     * creates) the file. @return nullptr with `result` set on
     * failure.
     */
    static std::unique_ptr<FileSink>
    open(const std::string &path, bool truncate, IoResult &result)
    {
        const int flags = O_WRONLY | O_CREAT | O_APPEND |
            (truncate ? O_TRUNC : 0);
        int fd = -1;
        do {
            fd = ::open(path.c_str(), flags, 0644);
        } while (fd < 0 && errno == EINTR);
        if (fd < 0) {
            result = IoResult::failure(errno, "open " + path);
            return nullptr;
        }
        result = IoResult();
        return std::make_unique<FileSink>(fd);
    }

    IoResult
    write(const void *data, std::size_t size) override
    {
        const std::uint8_t *p =
            static_cast<const std::uint8_t *>(data);
        std::size_t left = size;
        while (left > 0) {
            const ::ssize_t n = ::write(fd_, p, left);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                IoResult r = IoResult::failure(errno, "write");
                r.bytesWritten = size - left;
                return r;
            }
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        IoResult r;
        r.bytesWritten = size;
        return r;
    }

    IoResult
    sync() override
    {
        int rc = 0;
        do {
            rc = ::fsync(fd_);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0)
            return IoResult::failure(errno, "fsync");
        return IoResult();
    }

  private:
    int fd_;
};

/** Sink capturing everything in memory, for tests. */
class MemorySink : public Sink
{
  public:
    IoResult
    write(const void *data, std::size_t size) override
    {
        const std::uint8_t *p =
            static_cast<const std::uint8_t *>(data);
        data_.insert(data_.end(), p, p + size);
        ++writes_;
        IoResult r;
        r.bytesWritten = size;
        return r;
    }

    IoResult
    sync() override
    {
        ++syncs_;
        return IoResult();
    }

    const std::vector<std::uint8_t> &data() const { return data_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t syncs() const { return syncs_; }

  private:
    std::vector<std::uint8_t> data_;
    std::uint64_t writes_ = 0;
    std::uint64_t syncs_ = 0;
};

/**
 * Deterministic failure budget shared by every FaultInjectingSink of
 * one scenario. Cumulative across sinks, like the free space of one
 * disk: the fault fires at the same global byte offset however many
 * files the scenario writes.
 */
struct FaultPlan
{
    /** Total bytes allowed across all wrapped sinks before writes
     *  start failing with NoSpace. */
    std::uint64_t failAfterBytes = ~std::uint64_t{0};
    /** Bytes accepted so far (all wrapped sinks combined). */
    std::uint64_t written = 0;
    /** Latched once the budget was exceeded; syncs fail too, like a
     *  real full disk. */
    bool triggered = false;
};

/**
 * Sink decorator failing deterministically at a byte offset: the
 * write crossing the budget transfers exactly the bytes that fit
 * (a torn record, as on a really-full disk), then reports NoSpace.
 */
class FaultInjectingSink : public Sink
{
  public:
    FaultInjectingSink(std::unique_ptr<Sink> inner,
                       std::shared_ptr<FaultPlan> plan)
        : inner_(std::move(inner)), plan_(std::move(plan))
    {
    }

    IoResult
    write(const void *data, std::size_t size) override
    {
        if (plan_->triggered)
            return IoResult::failure(ENOSPC, "write (injected)");
        if (plan_->written + size > plan_->failAfterBytes) {
            const std::size_t fits = static_cast<std::size_t>(
                plan_->failAfterBytes - plan_->written);
            if (fits > 0)
                inner_->write(data, fits);
            plan_->written += fits;
            plan_->triggered = true;
            IoResult r =
                IoResult::failure(ENOSPC, "write (injected)");
            r.bytesWritten = fits;
            return r;
        }
        const IoResult r = inner_->write(data, size);
        plan_->written += r.bytesWritten;
        return r;
    }

    IoResult
    sync() override
    {
        if (plan_->triggered)
            return IoResult::failure(ENOSPC, "fsync (injected)");
        return inner_->sync();
    }

  private:
    std::unique_ptr<Sink> inner_;
    std::shared_ptr<FaultPlan> plan_;
};

/**
 * Creates the sink for a (possibly new) file. `truncate` empties an
 * existing file first; append otherwise. The journal opens its file
 * through it, so a factory injected here reaches every byte the
 * journal ever writes.
 */
using SinkFactory = std::function<std::unique_ptr<Sink>(
    const std::string &path, bool truncate, IoResult &result)>;

/** @return the production factory (plain FileSinks). */
inline SinkFactory
fileSinkFactory()
{
    return [](const std::string &path, bool truncate,
              IoResult &result) -> std::unique_ptr<Sink> {
        return FileSink::open(path, truncate, result);
    };
}

/** @return a factory wrapping file sinks in a shared fault plan. */
inline SinkFactory
faultInjectingFileSinkFactory(std::shared_ptr<FaultPlan> plan)
{
    return [plan](const std::string &path, bool truncate,
                  IoResult &result) -> std::unique_ptr<Sink> {
        std::unique_ptr<FileSink> inner =
            FileSink::open(path, truncate, result);
        if (!inner)
            return nullptr;
        return std::make_unique<FaultInjectingSink>(std::move(inner),
                                                    plan);
    };
}

/**
 * Reads the whole file into `out` (replacing its contents), looping
 * over EINTR. @return failure with errno ENOENT when missing.
 */
inline IoResult
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    int fd = -1;
    do {
        fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return IoResult::failure(errno, "open " + path);
    std::uint8_t chunk[1 << 16];
    while (true) {
        const ::ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const IoResult r =
                IoResult::failure(errno, "read " + path);
            ::close(fd);
            return r;
        }
        if (n == 0)
            break;
        out.insert(out.end(), chunk,
                   chunk + static_cast<std::size_t>(n));
    }
    ::close(fd);
    return IoResult();
}

/** @return true when `path` exists (any file type). */
inline bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** Truncates `path` to `bytes` in place. */
inline IoResult
truncateFile(const std::string &path, std::uint64_t bytes)
{
    int rc = 0;
    do {
        rc = ::truncate(path.c_str(),
                        static_cast<::off_t>(bytes));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0)
        return IoResult::failure(errno, "truncate " + path);
    return IoResult();
}

/** Removes `path`; missing files are not an error. */
inline IoResult
removeFile(const std::string &path)
{
    if (::unlink(path.c_str()) < 0 && errno != ENOENT)
        return IoResult::failure(errno, "unlink " + path);
    return IoResult();
}

} // namespace io
} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_IO_HH
