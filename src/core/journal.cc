/**
 * @file
 * Measurement journal implementation.
 */

#include "core/journal.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "base/check.hh"
#include "base/logging.hh"
#include "core/record_codec.hh"

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

constexpr std::array<std::uint8_t, 4> kMagic = {'S', 'J', 'N', 'L'};

/** Header: magic + version + identity payload + crc. */
constexpr std::size_t kHeaderSize =
    4 + 4 + 8 + 4 * 4 + 8 + 4;

/** Serializes the header: magic, version, identity, trailing crc. */
std::vector<std::uint8_t>
serializeHeader(const JournalHeader &header)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kHeaderSize);
    RecordWriter w(bytes);
    for (const std::uint8_t c : kMagic)
        w.u8(c);
    w.u32(kJournalVersion);
    w.u64(header.seed);
    w.u32(header.cores);
    w.u32(header.pipesPerCore);
    w.u32(header.strandsPerPipe);
    w.u32(header.tasks);
    w.u64(header.configHash);
    w.u32(crc32(bytes.data(), bytes.size()));
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
scanSegment(std::span<const std::uint8_t> bytes)
{
    SegmentScan scan;
    scan.totalBytes = bytes.size();

    // Header: fixed size, trailing CRC over everything before it. A
    // bad header means the file is not ours (or the very first write
    // was torn) — unusable either way. No read below can run out of
    // bytes once the size check has passed.
    if (bytes.size() < kHeaderSize) {
        scan.error = "journal shorter than its header";
        return scan;
    }
    if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
        scan.error = "journal magic mismatch";
        return scan;
    }
    RecordReader r(bytes.first(kHeaderSize).subspan(kMagic.size()));
    std::uint32_t version = 0;
    r.u32(version);
    if (version != kJournalVersion) {
        scan.error = "unsupported journal version " +
            std::to_string(version);
        return scan;
    }
    JournalHeader &h = scan.header;
    std::uint32_t storedCrc = 0;
    r.u64(h.seed);
    r.u32(h.cores);
    r.u32(h.pipesPerCore);
    r.u32(h.strandsPerPipe);
    r.u32(h.tasks);
    r.u64(h.configHash);
    r.u32(storedCrc);
    if (storedCrc != crc32(bytes.data(), kHeaderSize - 4)) {
        scan.error = "journal header checksum mismatch";
        return scan;
    }
    scan.headerValid = true;
    scan.validBytes = kHeaderSize;

    // Records. The commit unit is the complete batch group: a
    // BatchBegin plus exactly `count` Measurement records. validBytes
    // only advances at group boundaries, so a crash mid-batch (torn
    // record or missing group members) drops the whole group — it
    // will be re-measured on resume with the same reserved indices.
    JournalBatch openGroup;
    std::uint32_t openRemaining = 0;
    bool groupOpen = false;
    // @return false for a record that is out of place, of the wrong
    // size or of an unknown type (written by a future version, or
    // garbage): it ends the trusted prefix like a torn one.
    const auto apply = [&](const FrameView &record) {
        RecordReader in(record.payload);
        switch (record.type) {
          case kRecordBatchBegin: {
            JournalBatch group;
            if (groupOpen || !in.u32(group.round) ||
                !in.u32(openRemaining) || !in.exhausted())
                return false;
            openGroup = std::move(group);
            groupOpen = true;
            return true;
          }
          case kRecordMeasurement: {
            JournalMeasurement m;
            if (!groupOpen || openRemaining == 0 || !in.u64(m.keyHash) ||
                !readOutcome(in, m.outcome) || !in.exhausted())
                return false;
            openGroup.measurements.push_back(m);
            --openRemaining;
            return true;
          }
          case kRecordCheckpoint: {
            JournalCheckpoint cp;
            std::uint8_t kind = 0;
            if (groupOpen || !in.u8(kind) ||
                kind > static_cast<std::uint8_t>(
                           CheckpointKind::Aborted) ||
                !in.u32(cp.round) || !in.u64(cp.attempted) ||
                !in.u64(cp.sampled) || !in.f64(cp.best) ||
                !in.exhausted())
                return false;
            cp.kind = static_cast<CheckpointKind>(kind);
            scan.checkpoints.push_back(cp);
            return true;
          }
        }
        return false;
    };

    // A torn or corrupt frame ends the trusted prefix too: distrust
    // it and everything after.
    std::size_t offset = kHeaderSize;
    FrameView record;
    while (readFrame(bytes.subspan(offset), record) ==
               FrameStatus::Complete &&
           apply(record)) {
        offset += record.size();
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

std::uint64_t
journalKeyHash(const Assignment &assignment)
{
    // Over the canonical key, so symmetric assignments hash equal —
    // the same equivalence notion the memoization cache uses.
    return fnv1a64(assignment.canonicalKey());
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

    // The journal's files in chain order. A plain file at the exact
    // path is a single-file journal, even when a stale segment chain
    // also exists — the plain file is what the last writer committed
    // to. Otherwise they are the segments <path>.000, <path>.001, ...
    // up to the first missing index.
    std::vector<std::string> files;
    recovery.segmented = !base::io::fileExists(path);
    if (!recovery.segmented) {
        files.push_back(path);
    } else {
        for (std::uint32_t i = 0;
             base::io::fileExists(journalSegmentPath(path, i)); ++i)
            files.push_back(journalSegmentPath(path, i));
    }

    // Every file carries the full identity header; trust stops at the
    // first unreadable, foreign or torn file — anything after the
    // trust horizon was written by a writer whose predecessor state we
    // cannot vouch for.
    std::vector<std::uint8_t> bytes;
    std::size_t trusted = 0;
    while (trusted < files.size() &&
           base::io::readFileBytes(files[trusted], bytes).ok()) {
        recovery.fileExists = true;
        SegmentScan scan = scanSegment(bytes);
        if (trusted == 0) {
            if (!scan.headerValid) {
                recovery.error = scan.error;
                return recovery;
            }
            recovery.headerValid = true;
            recovery.header = scan.header;
        } else if (!scan.headerValid ||
                   !(scan.header == recovery.header)) {
            break;
        }
        for (JournalBatch &b : scan.batches)
            recovery.batches.push_back(std::move(b));
        for (const JournalCheckpoint &cp : scan.checkpoints)
            recovery.checkpoints.push_back(cp);
        recovery.activeSegment = files[trusted];
        recovery.activeSegmentIndex = static_cast<std::uint32_t>(trusted);
        recovery.validBytes = scan.validBytes;
        recovery.truncatedBytes += scan.totalBytes - scan.validBytes;
        ++trusted;
        // A torn tail: any successor was appended after bytes we just
        // distrusted, so it is stale, not valid.
        if (!scan.clean())
            break;
    }
    if (trusted == 0) {
        recovery.error = "journal does not exist or is unreadable";
        return recovery;
    }
    recovery.segmentFiles.assign(files.begin(), files.begin() + trusted);
    recovery.staleSegments.assign(files.begin() + trusted, files.end());
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
    // Physically drop the untrustworthy tail before appending: a
    // later recovery must never see the old bytes behind new records.
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
                                std::span<const std::uint8_t> payload)
{
    if (!recording()) {
        ++droppedRecords_;
        return;
    }
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameOverhead + payload.size());
    appendFrame(frame, type, payload);
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

    // The scan trusted every byte, so the records are whole frames
    // up to the end of the file; a checkpoint's kind is its first
    // payload byte.
    std::vector<std::uint8_t> out(bytes.begin(),
                                  bytes.begin() + kHeaderSize);
    std::span<const std::uint8_t> rest =
        std::span<const std::uint8_t>(bytes).subspan(kHeaderSize);
    FrameView record;
    while (readFrame(rest, record) == FrameStatus::Complete) {
        const bool progress = record.type == kRecordCheckpoint &&
            record.payload[0] ==
                static_cast<std::uint8_t>(CheckpointKind::Progress);
        if (!progress)
            out.insert(out.end(), rest.begin(),
                       rest.begin() + record.size());
        rest = rest.subspan(record.size());
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
    RecordWriter w(payload);
    w.u32(round);
    w.u32(count);
    writeRecord(kRecordBatchBegin, payload);
}

void
MeasurementJournal::appendMeasurement(
    std::uint64_t keyHash, const MeasurementOutcome &outcome)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u64(keyHash);
    writeOutcome(w, outcome);
    writeRecord(kRecordMeasurement, payload);
}

void
MeasurementJournal::appendCheckpoint(
    const JournalCheckpoint &checkpoint)
{
    if (recording() && segmented_ &&
        segmentBytes_ >= config_.segmentBytes)
        rotateSegment();
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u8(static_cast<std::uint8_t>(checkpoint.kind));
    w.u32(checkpoint.round);
    w.u64(checkpoint.attempted);
    w.u64(checkpoint.sampled);
    w.f64(checkpoint.best);
    writeRecord(kRecordCheckpoint, payload);
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
