/**
 * @file
 * Measurement journal implementation.
 */

#include "core/journal.hh"

#include <array>
#include <cstring>
#include <utility>

#include "base/check.hh"
#include "base/logging.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Record type tags (on-disk; never renumber). */
constexpr std::uint8_t kRecordBatchBegin = 1;
constexpr std::uint8_t kRecordMeasurement = 2;
constexpr std::uint8_t kRecordCheckpoint = 3;

constexpr std::array<char, 4> kMagic = {'S', 'J', 'N', 'L'};

/** Fixed payload sizes per record type. */
constexpr std::size_t kBatchBeginSize = 4 + 4;
constexpr std::size_t kMeasurementSize = 8 + 8 + 1 + 4;
constexpr std::size_t kCheckpointSize = 1 + 4 + 8 + 8 + 8;

/** Header: magic + version + identity payload + crc. */
constexpr std::size_t kHeaderSize =
    4 + 4 + 8 + 4 * 4 + 8 + 4;

/** Little-endian serialization cursor over a byte buffer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        out_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

  private:
    std::vector<std::uint8_t> &out_;
};

/** Little-endian deserialization cursor with bounds checking. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        SCHED_REQUIRE(remaining() >= 1, "journal read out of bounds");
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        SCHED_REQUIRE(remaining() >= 2, "journal read out of bounds");
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        SCHED_REQUIRE(remaining() >= 4, "journal read out of bounds");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        SCHED_REQUIRE(remaining() >= 8, "journal read out of bounds");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Serializes the header (everything but nothing missing: magic,
 *  version, identity, trailing crc). */
std::vector<std::uint8_t>
serializeHeader(const JournalHeader &header)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kHeaderSize);
    ByteWriter w(bytes);
    for (char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kJournalVersion);
    w.u64(header.seed);
    w.u32(header.cores);
    w.u32(header.pipesPerCore);
    w.u32(header.strandsPerPipe);
    w.u32(header.tasks);
    w.u64(header.configHash);
    w.u32(journalCrc32(bytes.data(), bytes.size()));
    SCHED_ENSURE(bytes.size() == kHeaderSize,
                 "journal header size drifted from the format");
    return bytes;
}

/** Record-level scan of one journal file (header + records). */
struct SegmentScan
{
    bool headerValid = false;
    JournalHeader header;
    std::vector<JournalBatch> batches;
    std::vector<JournalCheckpoint> checkpoints;
    std::uint64_t validBytes = 0; //!< trusted prefix of this file
    std::uint64_t totalBytes = 0; //!< file size as read
    std::string error;            //!< unusable header, if any

    /** @return true when every byte of the file is trusted (no torn
     *  tail) — the condition for trusting a successor segment. */
    bool
    clean() const
    {
        return headerValid && validBytes == totalBytes;
    }
};

/**
 * Validates one journal file: header, then records with group-commit
 * semantics (validBytes only advances at complete batch groups and
 * checkpoints). Shared by recovery and segment compaction.
 */
SegmentScan
scanSegment(const std::vector<std::uint8_t> &bytes)
{
    SegmentScan scan;
    scan.totalBytes = bytes.size();

    // Header: fixed size, trailing CRC over everything before it. A
    // bad header means the file is not ours (or the very first write
    // was torn) — unusable either way.
    if (bytes.size() < kHeaderSize) {
        scan.error = "journal shorter than its header";
        return scan;
    }
    {
        ByteReader r(bytes.data(), kHeaderSize);
        bool magicOk = true;
        for (char c : kMagic)
            magicOk &= r.u8() == static_cast<std::uint8_t>(c);
        if (!magicOk) {
            scan.error = "journal magic mismatch";
            return scan;
        }
        const std::uint32_t version = r.u32();
        if (version != kJournalVersion) {
            scan.error = "unsupported journal version " +
                std::to_string(version);
            return scan;
        }
        scan.header.seed = r.u64();
        scan.header.cores = r.u32();
        scan.header.pipesPerCore = r.u32();
        scan.header.strandsPerPipe = r.u32();
        scan.header.tasks = r.u32();
        scan.header.configHash = r.u64();
        const std::uint32_t storedCrc = r.u32();
        const std::uint32_t computedCrc =
            journalCrc32(bytes.data(), kHeaderSize - 4);
        if (storedCrc != computedCrc) {
            scan.error = "journal header checksum mismatch";
            return scan;
        }
    }
    scan.headerValid = true;
    scan.validBytes = kHeaderSize;

    // Records. The commit unit is the complete batch group: a
    // BatchBegin plus exactly `count` Measurement records. validBytes
    // only advances at group boundaries, so a crash mid-batch (torn
    // record or missing group members) drops the whole group — it
    // will be re-measured on resume with the same reserved indices.
    std::size_t offset = kHeaderSize;
    JournalBatch openGroup;
    std::uint32_t openRemaining = 0;
    bool groupOpen = false;

    for (;;) {
        if (bytes.size() - offset < 3)
            break; // torn frame prefix (or clean EOF)
        const std::uint8_t type = bytes[offset];
        const std::uint16_t size =
            static_cast<std::uint16_t>(bytes[offset + 1]) |
            static_cast<std::uint16_t>(bytes[offset + 2]) << 8;
        const std::size_t frame = 3u + size + 4u;
        if (bytes.size() - offset < frame)
            break; // torn record body
        const std::uint32_t storedCrc =
            static_cast<std::uint32_t>(bytes[offset + 3 + size]) |
            static_cast<std::uint32_t>(bytes[offset + 4 + size]) << 8 |
            static_cast<std::uint32_t>(bytes[offset + 5 + size])
                << 16 |
            static_cast<std::uint32_t>(bytes[offset + 6 + size])
                << 24;
        if (journalCrc32(bytes.data() + offset, 3u + size) !=
            storedCrc)
            break; // corrupt record: distrust it and everything after

        ByteReader r(bytes.data() + offset + 3, size);
        bool parsed = true;
        switch (type) {
          case kRecordBatchBegin: {
            if (size != kBatchBeginSize || groupOpen) {
                parsed = false;
                break;
            }
            openGroup = JournalBatch();
            openGroup.round = r.u32();
            openRemaining = r.u32();
            groupOpen = true;
            break;
          }
          case kRecordMeasurement: {
            if (size != kMeasurementSize || !groupOpen ||
                openRemaining == 0) {
                parsed = false;
                break;
            }
            JournalMeasurement m;
            m.keyHash = r.u64();
            m.outcome.value = r.f64();
            const std::uint8_t status = r.u8();
            if (status >
                static_cast<std::uint8_t>(
                    MeasureStatus::Quarantined)) {
                parsed = false;
                break;
            }
            m.outcome.status = static_cast<MeasureStatus>(status);
            m.outcome.attempts = r.u32();
            openGroup.measurements.push_back(m);
            --openRemaining;
            break;
          }
          case kRecordCheckpoint: {
            if (size != kCheckpointSize || groupOpen) {
                parsed = false;
                break;
            }
            JournalCheckpoint cp;
            const std::uint8_t kind = r.u8();
            if (kind >
                static_cast<std::uint8_t>(CheckpointKind::Aborted)) {
                parsed = false;
                break;
            }
            cp.kind = static_cast<CheckpointKind>(kind);
            cp.round = r.u32();
            cp.attempted = r.u64();
            cp.sampled = r.u64();
            cp.best = r.f64();
            scan.checkpoints.push_back(cp);
            break;
          }
          default:
            parsed = false; // unknown type: written by a future
                            // version or garbage — either way stop
            break;
        }
        if (!parsed)
            break;

        offset += frame;
        if (groupOpen && openRemaining == 0) {
            scan.batches.push_back(std::move(openGroup));
            groupOpen = false;
            scan.validBytes = offset;
        } else if (!groupOpen) {
            scan.validBytes = offset; // checkpoint committed
        }
    }

    return scan;
}

} // anonymous namespace

std::uint32_t
journalCrc32(const void *data, std::size_t size, std::uint32_t seed)
{
    // IEEE 802.3 reflected CRC32, bytewise table; the table is built
    // once on first use.
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();

    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
journalKeyHash(const Assignment &assignment)
{
    // FNV-1a over the canonical key, so symmetric assignments hash
    // equal — the same equivalence notion the memoization cache uses.
    const std::string key = assignment.canonicalKey();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

const char *
journalErrorPolicyName(JournalErrorPolicy policy)
{
    switch (policy) {
      case JournalErrorPolicy::Abort:
        return "abort";
      case JournalErrorPolicy::Degrade:
        return "degrade";
    }
    return "?";
}

std::string
journalSegmentPath(const std::string &base, std::uint32_t index)
{
    std::string suffix = std::to_string(index);
    while (suffix.size() < 3)
        suffix.insert(suffix.begin(), '0');
    return base + "." + suffix;
}

JournalRecovery
recoverJournal(const std::string &path)
{
    JournalRecovery recovery;
    std::vector<std::uint8_t> bytes;

    // A plain file at the exact path is a single-file journal, even
    // when a stale segment chain also exists — the plain file is what
    // the last writer committed to.
    if (base::io::readFileBytes(path, bytes).ok()) {
        recovery.fileExists = true;
        recovery.segmented = false;
        recovery.activeSegment = path;
        recovery.activeSegmentIndex = 0;
        SegmentScan scan = scanSegment(bytes);
        if (!scan.headerValid) {
            recovery.error = scan.error;
            return recovery;
        }
        recovery.headerValid = true;
        recovery.header = scan.header;
        recovery.batches = std::move(scan.batches);
        recovery.checkpoints = std::move(scan.checkpoints);
        recovery.validBytes = scan.validBytes;
        recovery.truncatedBytes = scan.totalBytes - scan.validBytes;
        recovery.segmentFiles.push_back(path);
        return recovery;
    }

    if (!base::io::fileExists(journalSegmentPath(path, 0))) {
        recovery.error = "journal does not exist or is unreadable";
        return recovery;
    }

    // Segment chain: every segment carries the full identity header;
    // trust stops at the first torn, foreign or unreadable segment —
    // anything after the trust horizon was written by a writer whose
    // predecessor state we cannot vouch for.
    recovery.segmented = true;
    for (std::uint32_t i = 0;; ++i) {
        const std::string segPath = journalSegmentPath(path, i);
        if (!base::io::readFileBytes(segPath, bytes).ok()) {
            if (base::io::fileExists(segPath))
                recovery.staleSegments.push_back(segPath);
            break; // end of chain (or unreadable: stop trusting)
        }
        recovery.fileExists = true;
        SegmentScan scan = scanSegment(bytes);
        const bool trusted = scan.headerValid &&
            (i == 0 || scan.header == recovery.header);
        if (i == 0 && !trusted) {
            recovery.error = scan.error.empty()
                ? "journal header mismatch"
                : scan.error;
            return recovery;
        }
        if (!trusted) {
            recovery.staleSegments.push_back(segPath);
            for (std::uint32_t j = i + 1;
                 base::io::fileExists(journalSegmentPath(path, j));
                 ++j)
                recovery.staleSegments.push_back(
                    journalSegmentPath(path, j));
            break;
        }
        if (i == 0) {
            recovery.headerValid = true;
            recovery.header = scan.header;
        }
        for (JournalBatch &b : scan.batches)
            recovery.batches.push_back(std::move(b));
        for (const JournalCheckpoint &cp : scan.checkpoints)
            recovery.checkpoints.push_back(cp);
        recovery.segmentFiles.push_back(segPath);
        recovery.activeSegment = segPath;
        recovery.activeSegmentIndex = i;
        recovery.validBytes = scan.validBytes;
        recovery.truncatedBytes += scan.totalBytes - scan.validBytes;
        if (!scan.clean()) {
            // Torn tail mid-chain: successors were appended after
            // bytes we just distrusted — they are stale, not valid.
            for (std::uint32_t j = i + 1;
                 base::io::fileExists(journalSegmentPath(path, j));
                 ++j)
                recovery.staleSegments.push_back(
                    journalSegmentPath(path, j));
            break;
        }
    }
    return recovery;
}

MeasurementJournal::MeasurementJournal(const std::string &path,
                                       const JournalHeader &header,
                                       JournalConfig config)
    : config_(std::move(config)), basePath_(path)
{
    if (!config_.sinkFactory)
        config_.sinkFactory = base::io::fileSinkFactory();
    headerBytes_ = serializeHeader(header);
    segmented_ = config_.segmentBytes > 0;
    activePath_ = segmented_ ? journalSegmentPath(path, 0) : path;
    if (segmented_) {
        // A fresh segmented journal must not leave segments from a
        // previous campaign behind the new chain head — recovery
        // would splice their records onto ours.
        for (std::uint32_t i = 1;
             base::io::fileExists(journalSegmentPath(path, i)); ++i)
            base::io::removeFile(journalSegmentPath(path, i));
    }
    openActive(/*truncate=*/true);
    if (recording() &&
        writeChecked(headerBytes_.data(), headerBytes_.size()))
        sync();
}

MeasurementJournal::MeasurementJournal(const std::string &path,
                                       std::uint64_t validBytes)
    : basePath_(path), activePath_(path)
{
    config_.sinkFactory = base::io::fileSinkFactory();
    // Physically drop the untrustworthy tail before appending: a
    // later recovery must never see the old bytes behind new records.
    const base::io::IoResult truncated =
        base::io::truncateFile(path, validBytes);
    if (!truncated.ok()) {
        handleIoFailure(truncated);
        return;
    }
    openActive(/*truncate=*/false);
    segmentBytes_ = validBytes;
}

MeasurementJournal::MeasurementJournal(const std::string &path,
                                       const JournalRecovery &recovery,
                                       JournalConfig config)
    : config_(std::move(config)), basePath_(path)
{
    if (!config_.sinkFactory)
        config_.sinkFactory = base::io::fileSinkFactory();
    headerBytes_ = serializeHeader(recovery.header);
    // Continue in the mode found on disk: a single-file journal stays
    // single-file even when the resumed run asks for segments (the
    // two layouts must never coexist at one path).
    segmented_ = recovery.segmented;
    segmentIndex_ = recovery.activeSegmentIndex;
    activePath_ = recovery.activeSegment.empty()
        ? path
        : recovery.activeSegment;
    for (const std::string &stale : recovery.staleSegments)
        base::io::removeFile(stale);
    const base::io::IoResult truncated =
        base::io::truncateFile(activePath_, recovery.validBytes);
    if (!truncated.ok()) {
        handleIoFailure(truncated);
        return;
    }
    openActive(/*truncate=*/false);
    segmentBytes_ = recovery.validBytes;
}

MeasurementJournal::MeasurementJournal(
    MeasurementJournal &&other) noexcept
    : config_(std::move(other.config_)),
      sink_(std::move(other.sink_)),
      basePath_(std::move(other.basePath_)),
      activePath_(std::move(other.activePath_)),
      segmented_(other.segmented_),
      segmentIndex_(other.segmentIndex_),
      segmentBytes_(other.segmentBytes_),
      headerBytes_(std::move(other.headerBytes_)),
      degraded_(other.degraded_),
      failed_(other.failed_),
      errorDetail_(std::move(other.errorDetail_)),
      droppedRecords_(other.droppedRecords_),
      rotations_(other.rotations_),
      compactedBytes_(other.compactedBytes_),
      bytesWritten_(other.bytesWritten_)
{
}

void
MeasurementJournal::openActive(bool truncate)
{
    base::io::IoResult result;
    sink_ = config_.sinkFactory(activePath_, truncate, result);
    if (!sink_)
        handleIoFailure(result);
}

void
MeasurementJournal::handleIoFailure(const base::io::IoResult &result)
{
    if (degraded_ || failed_)
        return; // already latched
    errorDetail_ = activePath_ + ": " + result.detail;
    sink_.reset();
    if (config_.onError == JournalErrorPolicy::Degrade) {
        degraded_ = true;
        warn("journal degraded to memory-only recording (" +
             errorDetail_ + "); results stay exact, durability from "
             "this point is lost");
        if (config_.onDegrade)
            config_.onDegrade(errorDetail_);
    } else {
        failed_ = true;
        warn("journal media failure (" + errorDetail_ +
             "); policy abort: refusing to continue unjournaled");
    }
}

bool
MeasurementJournal::writeChecked(const std::uint8_t *data,
                                 std::size_t size)
{
    base::io::IoResult result;
    const std::uint8_t *p = data;
    std::size_t left = size;
    // Bounded immediate retries of the unwritten remainder (the
    // injected Clock has no sleep, and a full disk does not heal in
    // microseconds — the policy, not a timer, decides what a
    // persistent failure means). Retrying only the remainder keeps
    // the byte stream consistent: no frame prefix is ever duplicated.
    for (std::uint32_t attempt = 0; attempt <= config_.writeRetries;
         ++attempt) {
        result = sink_->write(p, left);
        bytesWritten_ += result.bytesWritten;
        segmentBytes_ += result.bytesWritten;
        if (result.ok())
            return true;
        p += result.bytesWritten;
        left -= result.bytesWritten;
    }
    handleIoFailure(result);
    return false;
}

void
MeasurementJournal::writeRecord(std::uint8_t type,
                                const std::uint8_t *payload,
                                std::size_t size)
{
    if (!recording()) {
        ++droppedRecords_;
        return;
    }
    SCHED_REQUIRE(size <= 0xffff, "journal record payload too large");
    std::vector<std::uint8_t> frame;
    frame.reserve(3 + size + 4);
    ByteWriter w(frame);
    w.u8(type);
    w.u16(static_cast<std::uint16_t>(size));
    frame.insert(frame.end(), payload, payload + size);
    w.u32(journalCrc32(frame.data(), frame.size()));
    writeChecked(frame.data(), frame.size());
}

void
MeasurementJournal::rotateSegment()
{
    // Seal the active segment: everything in it must be durable
    // before a successor exists, or recovery could trust a successor
    // whose predecessor still had bytes in flight.
    const base::io::IoResult sealed = sink_->sync();
    if (!sealed.ok()) {
        handleIoFailure(sealed);
        return;
    }
    sink_.reset();
    compactSealedSegment(activePath_);
    ++segmentIndex_;
    ++rotations_;
    activePath_ = journalSegmentPath(basePath_, segmentIndex_);
    openActive(/*truncate=*/true);
    if (!recording())
        return;
    segmentBytes_ = 0;
    if (writeChecked(headerBytes_.data(), headerBytes_.size())) {
        const base::io::IoResult synced = sink_->sync();
        if (!synced.ok())
            handleIoFailure(synced);
    }
}

void
MeasurementJournal::compactSealedSegment(const std::string &path)
{
    // Best-effort space reclaim on a segment that will never be
    // appended again: interior Progress checkpoints are operator
    // telemetry, not replay substance — drop them. Batch groups are
    // always kept (replay needs every one). Any failure abandons the
    // rewrite and keeps the original: compaction is an optimization,
    // never a correctness step.
    std::vector<std::uint8_t> bytes;
    if (!base::io::readFileBytes(path, bytes).ok())
        return;
    SegmentScan scan = scanSegment(bytes);
    if (!scan.clean())
        return;

    std::vector<std::uint8_t> out(bytes.begin(),
                                  bytes.begin() + kHeaderSize);
    std::size_t offset = kHeaderSize;
    while (offset < bytes.size()) {
        const std::uint8_t type = bytes[offset];
        const std::uint16_t size =
            static_cast<std::uint16_t>(bytes[offset + 1]) |
            static_cast<std::uint16_t>(bytes[offset + 2]) << 8;
        const std::size_t frame = 3u + size + 4u;
        bool keep = true;
        if (type == kRecordCheckpoint && size == kCheckpointSize) {
            const std::uint8_t kind = bytes[offset + 3];
            keep = kind !=
                static_cast<std::uint8_t>(CheckpointKind::Progress);
        }
        if (keep)
            out.insert(out.end(), bytes.begin() + offset,
                       bytes.begin() + offset + frame);
        offset += frame;
    }
    if (out.size() == bytes.size())
        return; // nothing to reclaim

    const std::string tmp = path + ".tmp";
    {
        base::io::IoResult result;
        std::unique_ptr<base::io::Sink> sink =
            config_.sinkFactory(tmp, /*truncate=*/true, result);
        if (!sink)
            return;
        if (!sink->write(out.data(), out.size()).ok() ||
            !sink->sync().ok()) {
            sink.reset();
            base::io::removeFile(tmp);
            return;
        }
    }
    if (!base::io::renameFile(tmp, path).ok()) {
        base::io::removeFile(tmp);
        return;
    }
    compactedBytes_ += bytes.size() - out.size();
}

void
MeasurementJournal::beginBatch(std::uint32_t round,
                               std::uint32_t count)
{
    // Rotation only between groups, so no group ever spans segments.
    if (recording() && segmented_ &&
        segmentBytes_ >= config_.segmentBytes)
        rotateSegment();
    std::vector<std::uint8_t> payload;
    payload.reserve(kBatchBeginSize);
    ByteWriter w(payload);
    w.u32(round);
    w.u32(count);
    writeRecord(kRecordBatchBegin, payload.data(), payload.size());
}

void
MeasurementJournal::appendMeasurement(
    std::uint64_t keyHash, const MeasurementOutcome &outcome)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(kMeasurementSize);
    ByteWriter w(payload);
    w.u64(keyHash);
    w.f64(outcome.value);
    w.u8(static_cast<std::uint8_t>(outcome.status));
    w.u32(outcome.attempts);
    writeRecord(kRecordMeasurement, payload.data(), payload.size());
}

void
MeasurementJournal::appendCheckpoint(
    const JournalCheckpoint &checkpoint)
{
    if (recording() && segmented_ &&
        segmentBytes_ >= config_.segmentBytes)
        rotateSegment();
    std::vector<std::uint8_t> payload;
    payload.reserve(kCheckpointSize);
    ByteWriter w(payload);
    w.u8(static_cast<std::uint8_t>(checkpoint.kind));
    w.u32(checkpoint.round);
    w.u64(checkpoint.attempted);
    w.u64(checkpoint.sampled);
    w.f64(checkpoint.best);
    writeRecord(kRecordCheckpoint, payload.data(), payload.size());
}

void
MeasurementJournal::sync()
{
    if (!recording())
        return;
    // fsync, not a userspace flush: the write-ahead property must
    // hold across power loss, not only across process death — and a
    // failed fsync means the records are NOT durable, which is
    // exactly as serious as a failed write.
    const base::io::IoResult result = sink_->sync();
    if (!result.ok())
        handleIoFailure(result);
}

JournalingEngine::JournalingEngine(PerformanceEngine &inner,
                                   MeasurementJournal journal)
    : EngineDecorator(inner), journal_(std::move(journal))
{
}

void
JournalingEngine::queueReplay(std::vector<JournalBatch> batches)
{
    SCHED_REQUIRE(replayed_ == 0 && recorded_ == 0,
                  "replay queued after measurements started");
    for (JournalBatch &batch : batches)
        replayQueue_.push_back(std::move(batch));
}

void
JournalingEngine::failBatch(std::span<MeasurementOutcome> out,
                            std::string detail)
{
    if (!mismatch_) {
        mismatch_ = true;
        mismatchDetail_ = std::move(detail);
        warn("journal replay diverged: " + mismatchDetail_);
    }
    for (MeasurementOutcome &o : out)
        o = MeasurementOutcome::failure(MeasureStatus::Errored);
}

void
JournalingEngine::failUnjournaledBatch(
    std::span<MeasurementOutcome> out)
{
    // Policy Abort after a media failure: the write-ahead property
    // forbids handing upward what is not durable, so the batch fails
    // and the search above aborts cleanly. The durable prefix is
    // intact and the campaign resumable once space returns.
    if (!ioFailureWarned_) {
        ioFailureWarned_ = true;
        warn("journal unavailable, failing measurements: " +
             journal_.errorDetail());
    }
    for (MeasurementOutcome &o : out)
        o = MeasurementOutcome::failure(MeasureStatus::Errored);
}

void
JournalingEngine::serveReplayedBatch(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    JournalBatch group = std::move(replayQueue_.front());
    replayQueue_.pop_front();

    if (group.measurements.size() != batch.size()) {
        failBatch(out,
                  "batch size " + std::to_string(batch.size()) +
                      " does not match journaled group of " +
                      std::to_string(group.measurements.size()) +
                      " (configuration changed?)");
        return;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (journalKeyHash(batch[i]) != group.measurements[i].keyHash) {
            failBatch(out,
                      "assignment key at batch index " +
                          std::to_string(i) +
                          " does not match the journal "
                          "(configuration changed?)");
            return;
        }
    }

    // Fast-forward the inner engines' per-measurement index cursors
    // (the reservation contract in performance_engine.hh): after the
    // queue drains, fresh measurements continue the noise and fault
    // streams exactly where the original run left them. This also
    // keeps a ShardedEngine below in lock-step — its global cursor
    // advances here and its workers lazily fast-forward on their next
    // request, so a sharded campaign resumes bit-identically under
    // any shard count.
    inner_.reserveMeasurementIndices(batch.size());

    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = group.measurements[i].outcome;
    replayed_ += batch.size();
}

void
JournalingEngine::measureBatchOutcome(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;
    if (mismatch_) {
        // Divergence is latched: keep failing so the search aborts
        // quickly instead of appending post-divergence garbage.
        failBatch(out, mismatchDetail_);
        return;
    }
    if (!replayQueue_.empty()) {
        serveReplayedBatch(batch, out);
        return;
    }
    if (journal_.failed()) {
        failUnjournaledBatch(out);
        return;
    }

    inner_.measureBatchOutcome(batch, out);

    // Write-ahead append: one group per batch, synced before the
    // results are handed upward, so a crash can lose at most the
    // batch currently in flight — which recovery then drops and the
    // resumed run re-measures with the same reserved indices.
    journal_.beginBatch(round_,
                        static_cast<std::uint32_t>(batch.size()));
    for (std::size_t i = 0; i < batch.size(); ++i)
        journal_.appendMeasurement(journalKeyHash(batch[i]), out[i]);
    journal_.sync();
    if (journal_.failed()) {
        // The media died under this very batch (policy Abort):
        // discard the measured outcomes rather than hand upward what
        // never became durable.
        failUnjournaledBatch(out);
        return;
    }
    if (journal_.degraded())
        unjournaled_ += batch.size();
    else
        recorded_ += batch.size();
}

void
JournalingEngine::checkpoint(const JournalCheckpoint &checkpoint)
{
    if (replaying())
        return; // already on disk from the original run
    journal_.appendCheckpoint(checkpoint);
    journal_.sync();
}

} // namespace core
} // namespace statsched
