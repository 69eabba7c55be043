/**
 * @file
 * Crash-safe measurement journal.
 *
 * A production campaign is thousands of ~1.5 s measurements (Section
 * 5.3 of the paper); a crash must not throw them away. The journal is
 * a write-ahead log of every measurement batch the engine stack
 * performs: an append-only binary file with a versioned, checksummed
 * header and CRC32-framed records, flushed to disk after every batch.
 * On restart, recoverJournal() reads back the longest trustworthy
 * prefix — torn or corrupt tail records are detected by their CRC and
 * *truncated, never trusted* — and the JournalingEngine decorator
 * replays it so the resumed campaign continues exactly where the dead
 * one stopped.
 *
 * Determinism argument (why a resumed run is bit-identical to an
 * uninterrupted one):
 *
 *  - The journal sits BELOW the stateful upper decorators and ABOVE
 *    the stateless-per-index lower ones:
 *
 *      Metered(Memoizing(Resilient(Journaling(Parallel(Fault(Sim))))))
 *
 *    Everything above the journal (memo cache, quarantine set, retry
 *    ladders, the sampler and accumulator driven by the search loop)
 *    is a pure function of the measurement outcomes it has seen. On
 *    resume the search is re-driven from scratch; the journal serves
 *    the recorded outcomes in order, so all upper state is rebuilt
 *    bit-identically without touching the testbed.
 *
 *  - Everything below the journal keeps per-measurement-index state
 *    (the simulator's noise stream, the fault injector's fault
 *    stream), reserved per batch through the kernel interface. For
 *    each replayed batch of size B the JournalingEngine calls
 *    reserveMeasurementIndices(B) on the inner stack, which advances
 *    those index cursors by exactly B (the reservation contract of
 *    PerformanceEngine::outcomeKernel()). When the replay queue
 *    drains, the cursors stand exactly where the crashed process left
 *    them, so fresh measurements continue the original streams.
 *
 *  - Only *complete* batch groups are replayed. A batch interrupted by
 *    the crash (torn record, missing group members) is dropped by
 *    recovery and re-measured fresh — with the same reserved indices
 *    it would have used originally, hence the same readings.
 *
 * Failure policy. All file I/O goes through base::io::Sink (checked
 * writes, checked fsync). When the medium fails (ENOSPC, EIO) the
 * journal never takes the process down; JournalErrorPolicy decides
 * what a write failure means:
 *
 *  - Abort (default): the journal latches failed(); the
 *    JournalingEngine refuses to hand un-journaled outcomes upward,
 *    so the campaign aborts cleanly with the durable prefix intact
 *    and resumable.
 *
 *  - Degrade: the journal latches degraded(), drops its sink and
 *    becomes a memory-only recorder (appends count droppedRecords()
 *    and do nothing else). The campaign runs to completion with
 *    bit-identical results; only durability is lost, and only from
 *    the failure point on — recovery still trusts the longest durable
 *    prefix.
 *
 * Segment rotation. With JournalConfig::segmentBytes > 0 the journal
 * is a chain journal.000, journal.001, ... instead of one file. Each
 * segment opens with the full identity header; rotation happens at
 * batch-group boundaries once the active segment exceeds the
 * threshold, and the sealed segment is compacted (interior Progress
 * checkpoints are dropped; batch groups — the replay substance — are
 * always kept). recoverJournal() walks the chain, validates every
 * header against segment 0, and stops trusting at the first torn or
 * foreign segment.
 *
 * File format. Records are the frames of core/record_codec.hh, the
 * one definition of the frame, field and outcome layouts (all
 * integers little-endian, doubles as raw bits); the shard pipe
 * protocol uses the same frames:
 *
 *   header   := "SJNL" version:u32 seed:u64 cores:u32 pipesPerCore:u32
 *               strandsPerPipe:u32 tasks:u32 configHash:u64 crc:u32
 *               (crc = crc32 of all preceding header bytes)
 *   record   := frame (type:u8 size:u16 payload crc:u32)
 *   BatchBegin   (type 1) := round:u32 count:u32
 *   Measurement  (type 2) := keyHash:u64 outcome
 *                            (outcome = valueBits:u64 status:u8
 *                             attempts:u32)
 *   Checkpoint   (type 3) := kind:u8 round:u32 attempted:u64
 *                            sampled:u64 bestBits:u64
 *
 * A batch group is one BatchBegin followed by exactly `count`
 * Measurement records; Checkpoint records sit between groups.
 */

#ifndef STATSCHED_CORE_JOURNAL_HH
#define STATSCHED_CORE_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/io.hh"
#include "core/performance_engine.hh"
#include "core/topology.hh"

namespace statsched
{
namespace core
{

/** On-disk journal format version understood by this build. */
constexpr std::uint32_t kJournalVersion = 1;

/**
 * Identity of the campaign a journal belongs to. A journal may only
 * be resumed by a campaign with the same identity — replaying foreign
 * outcomes would silently corrupt the statistics.
 */
struct JournalHeader
{
    std::uint64_t seed = 0;            //!< sampler seed
    std::uint32_t cores = 0;           //!< topology shape...
    std::uint32_t pipesPerCore = 0;
    std::uint32_t strandsPerPipe = 0;
    std::uint32_t tasks = 0;           //!< workload size
    /** Hash of everything else that steers the search (engine config,
     *  iterative options); campaign code decides what to fold in. */
    std::uint64_t configHash = 0;

    /** @return the header for a campaign on `topology`. */
    static JournalHeader
    forCampaign(const Topology &topology, std::uint32_t tasks,
                std::uint64_t seed, std::uint64_t configHash)
    {
        JournalHeader h;
        h.seed = seed;
        h.cores = topology.cores;
        h.pipesPerCore = topology.pipesPerCore;
        h.strandsPerPipe = topology.strandsPerPipe;
        h.tasks = tasks;
        h.configHash = configHash;
        return h;
    }

    friend bool
    operator==(const JournalHeader &a, const JournalHeader &b)
    {
        return a.seed == b.seed && a.cores == b.cores &&
            a.pipesPerCore == b.pipesPerCore &&
            a.strandsPerPipe == b.strandsPerPipe &&
            a.tasks == b.tasks && a.configHash == b.configHash;
    }
};

/** One journaled measurement within a batch group. */
struct JournalMeasurement
{
    /** FNV-1a hash of the assignment's canonicalKey() — enough to
     *  detect replay divergence without storing full assignments
     *  (the re-driven search regenerates them). */
    std::uint64_t keyHash = 0;
    MeasurementOutcome outcome;
};

/** One complete batch group recovered from a journal. */
struct JournalBatch
{
    std::uint32_t round = 0;
    std::vector<JournalMeasurement> measurements;
};

/** Why a checkpoint was written. */
enum class CheckpointKind : std::uint8_t
{
    Progress = 0, //!< periodic, campaign still running
    Complete,     //!< campaign finished (converged or hit its cap)
    Aborted,      //!< campaign stopped early (signal/deadline/budget)
};

/** Campaign summary snapshot journaled at round boundaries. */
struct JournalCheckpoint
{
    CheckpointKind kind = CheckpointKind::Progress;
    std::uint32_t round = 0;
    std::uint64_t attempted = 0; //!< measurements attempted so far
    std::uint64_t sampled = 0;   //!< valid measurements kept so far
    double best = 0.0;           //!< best observed performance
};

/** What a journal write failure means for the campaign. */
enum class JournalErrorPolicy : std::uint8_t
{
    /** Latch failed(); the JournalingEngine fails every subsequent
     *  batch so the search aborts cleanly, resumable from the durable
     *  prefix. Never hands un-journaled outcomes upward. */
    Abort = 0,
    /** Latch degraded(); drop to memory-only recording (appends
     *  become counted no-ops) and let the campaign run to completion
     *  with full results but reduced durability. */
    Degrade,
};

/** @return "abort" / "degrade". */
const char *journalErrorPolicyName(JournalErrorPolicy policy);

/**
 * Durability and failure-handling knobs for MeasurementJournal.
 */
struct JournalConfig
{
    JournalErrorPolicy onError = JournalErrorPolicy::Abort;

    /** Rotate to a new segment once the active one exceeds this many
     *  bytes (0 = single-file journal, no rotation). Checked at
     *  batch-group boundaries, so groups never span segments. */
    std::uint64_t segmentBytes = 0;

    /** Extra immediate attempts to push the unwritten remainder of a
     *  record before declaring the sink broken. The injected Clock
     *  has no sleep — and a full disk does not heal in microseconds —
     *  so the backoff is bounded retries, not timed waits; the error
     *  policy decides what happens when they run out. */
    std::uint32_t writeRetries = 2;

    /** Sink source for the journal file and every rotated segment;
     *  empty means real files (base::io::fileSinkFactory()). Tests
     *  and the chaos harness inject fault-injecting factories here. */
    base::io::SinkFactory sinkFactory;

    /** Invoked once, with a failure description, when the policy is
     *  Degrade and the journal drops to memory-only recording. Wired
     *  to the campaign Health aggregate. */
    std::function<void(const std::string &)> onDegrade;
};

/** @return the on-disk path of segment `index` ("<base>.007"). */
std::string journalSegmentPath(const std::string &base,
                               std::uint32_t index);

/**
 * Result of reading a journal back from disk. Only the longest prefix
 * of intact, complete batch groups is reported; everything after it
 * (torn record, CRC mismatch, incomplete group) is counted in
 * `truncatedBytes` and must be discarded by rewriting the active file
 * down to `validBytes` before appending.
 */
struct JournalRecovery
{
    bool fileExists = false;
    bool headerValid = false;
    JournalHeader header;
    std::vector<JournalBatch> batches;
    std::vector<JournalCheckpoint> checkpoints;
    /** Byte length of the trustworthy prefix of the ACTIVE file
     *  (header included). For single-file journals the active file is
     *  the journal itself; for segmented ones it is the last trusted
     *  segment. */
    std::uint64_t validBytes = 0;
    /** Bytes beyond trustworthy prefixes that recovery dropped (not
     *  counting whole stale segments, which are listed below). */
    std::uint64_t truncatedBytes = 0;
    /** Non-empty when the journal is unusable (missing, bad magic,
     *  corrupt header); tail truncation is NOT an error. */
    std::string error;

    /** True when the journal is a segment chain (<path>.000, ...). */
    bool segmented = false;
    /** Trusted files, in chain order (single-file: just the path). */
    std::vector<std::string> segmentFiles;
    /** The file appends continue into. */
    std::string activeSegment;
    /** Chain index of activeSegment (0 for single-file journals). */
    std::uint32_t activeSegmentIndex = 0;
    /** Segment files AFTER the trust horizon (torn predecessor,
     *  foreign header, ...); resume must delete them before
     *  appending, or a later recovery would read stale records. */
    std::vector<std::string> staleSegments;

    /** @return journaled measurements across all complete groups. */
    std::uint64_t
    measurementCount() const
    {
        std::uint64_t n = 0;
        for (const JournalBatch &b : batches)
            n += b.measurements.size();
        return n;
    }
};

/**
 * Reads a journal (single file or segment chain) and validates it
 * record by record.
 *
 * Never throws on corrupt input: torn and corrupt tails are truncated
 * into `truncatedBytes`, untrusted segments are listed as stale, and
 * unusable files are reported through `error`.
 */
JournalRecovery recoverJournal(const std::string &path);

/**
 * Append-side of the journal: owns the sink, frames records,
 * checksums them, and fsyncs at batch boundaries so a SIGKILL can
 * lose at most the in-flight batch (which recovery then drops).
 *
 * Media failures never terminate the process; they latch failed() or
 * degraded() per the configured JournalErrorPolicy (see the file
 * comment), after which every append is a counted no-op.
 */
class MeasurementJournal
{
  public:
    /** Creates (or overwrites) the journal at `path` with a fresh
     *  header — a single file, or a segment chain when
     *  config.segmentBytes > 0. Open failures latch the policy
     *  outcome instead of throwing. */
    MeasurementJournal(const std::string &path,
                       const JournalHeader &header,
                       JournalConfig config = {});

    /**
     * Reopens a recovered journal (single-file or segmented) for
     * appending: deletes stale segments, truncates the active file to
     * the trusted prefix, and continues the chain in the mode
     * recovery found on disk (a single-file journal stays
     * single-file even if config asks for segments).
     */
    MeasurementJournal(const std::string &path,
                       const JournalRecovery &recovery,
                       JournalConfig config);

    MeasurementJournal(const MeasurementJournal &) = delete;
    MeasurementJournal &operator=(const MeasurementJournal &) = delete;
    MeasurementJournal(MeasurementJournal &&other) noexcept;
    ~MeasurementJournal() = default;

    /** Opens a batch group of `count` upcoming measurements. May
     *  rotate segments first (group boundaries only). */
    void beginBatch(std::uint32_t round, std::uint32_t count);

    /** Appends one measurement of the open batch group. */
    void appendMeasurement(std::uint64_t keyHash,
                           const MeasurementOutcome &outcome);

    /** Appends a checkpoint record (between batch groups). */
    void appendCheckpoint(const JournalCheckpoint &checkpoint);

    /** Fsyncs appended records to media; failures follow the error
     *  policy (an unsynced record is not durable, so a failed fsync
     *  is exactly as bad as a failed write). */
    void sync();

    /** @return true while appends actually reach the sink. */
    bool recording() const
    {
        return sink_ != nullptr && !degraded_ && !failed_;
    }

    /** @return true once a media failure degraded the journal to
     *  memory-only recording (policy Degrade); latched. */
    bool degraded() const { return degraded_; }

    /** @return true once a media failure stopped the journal under
     *  policy Abort; latched. */
    bool failed() const { return failed_; }

    /** @return description of the latched media failure. */
    const std::string &errorDetail() const { return errorDetail_; }

    /** @return records dropped after degradation/failure. */
    std::uint64_t droppedRecords() const { return droppedRecords_; }

    /** @return segment rotations performed so far. */
    std::uint64_t segmentsRotated() const { return rotations_; }

    /** @return bytes reclaimed by compacting sealed segments. */
    std::uint64_t compactedBytes() const { return compactedBytes_; }

    /** @return bytes written to the journal so far (header included
     *  for fresh journals; relative to reopen for resumed ones). */
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    void openActive(bool truncate);
    void writeRecord(std::uint8_t type,
                     std::span<const std::uint8_t> payload);
    bool writeChecked(const std::uint8_t *data, std::size_t size);
    void handleIoFailure(const base::io::IoResult &result);
    void rotateSegment();
    void compactSealedSegment(const std::string &path);

    JournalConfig config_;
    std::unique_ptr<base::io::Sink> sink_;
    std::string basePath_;   //!< journal path as configured
    std::string activePath_; //!< file currently appended to
    bool segmented_ = false;
    std::uint32_t segmentIndex_ = 0;
    /** Bytes in the active segment (header included); drives
     *  rotation. */
    std::uint64_t segmentBytes_ = 0;
    /** Serialized identity header, re-written into every segment. */
    std::vector<std::uint8_t> headerBytes_;
    bool degraded_ = false;
    bool failed_ = false;
    std::string errorDetail_;
    std::uint64_t droppedRecords_ = 0;
    std::uint64_t rotations_ = 0;
    std::uint64_t compactedBytes_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

/** @return the journal key hash (FNV-1a of canonicalKey()). */
std::uint64_t journalKeyHash(const Assignment &assignment);

/**
 * Write-ahead / replay decorator. See the file comment for where it
 * sits in the stack and why that placement makes resume
 * bit-identical.
 *
 * Record mode (fresh campaign, or a resumed one whose replay queue
 * has drained): every measureBatchOutcome() is forwarded to the inner
 * stack, then journaled as one batch group and fsynced.
 *
 * Replay mode (resumed campaign with queued groups): batches are
 * served from the journal without touching the inner engines' noise
 * streams — except for the index-reservation fast-forward that keeps
 * their index cursors in lock-step with the original run. Divergence
 * between the re-driven search and the journal (different batch size
 * or assignment keys) latches the mismatch flag and fails the batch;
 * it indicates a configuration change, not a recoverable condition.
 *
 * Journal media failures follow the journal's error policy: under
 * Abort every batch after the failure is failed (outcomes are never
 * handed upward without durability), under Degrade outcomes keep
 * flowing and unjournaledMeasurements() counts what memory-only
 * recording cost.
 *
 * Publishes no kernels: callers above always take the batch path, so
 * every measurement is journaled.
 */
class JournalingEngine : public EngineDecorator
{
  public:
    /**
     * @param inner   Engine stack to wrap (not owned).
     * @param journal Open journal, already positioned for appending.
     */
    JournalingEngine(PerformanceEngine &inner,
                     MeasurementJournal journal);

    /** Queues recovered batch groups to serve before touching the
     *  inner stack. Call once, before the first measurement. */
    void queueReplay(std::vector<JournalBatch> batches);

    /** Sets the round number stamped on subsequent batch groups. */
    void setRound(std::uint32_t round) { round_ = round; }

    /** @return true while queued groups remain to be served. */
    bool replaying() const { return !replayQueue_.empty(); }

    /** @return measurements served from the journal so far. */
    std::uint64_t replayedMeasurements() const { return replayed_; }

    /** @return measurements measured fresh and journaled so far. */
    std::uint64_t recordedMeasurements() const { return recorded_; }

    /** @return measurements handed upward without durability after
     *  the journal degraded (policy Degrade). */
    std::uint64_t unjournaledMeasurements() const
    {
        return unjournaled_;
    }

    /** @return true when replay detected divergence from the journal;
     *  latched, never cleared. */
    bool mismatch() const { return mismatch_; }

    /** @return human-readable divergence description when
     *  mismatch(). */
    const std::string &mismatchDetail() const { return mismatchDetail_; }

    /** @return true once a journal media failure stopped recording
     *  under policy Abort. */
    bool journalFailed() const { return journal_.failed(); }

    /** @return true once the journal degraded to memory-only
     *  recording under policy Degrade. */
    bool journalDegraded() const { return journal_.degraded(); }

    /** @return the wrapped journal (stats and error detail). */
    const MeasurementJournal &journal() const { return journal_; }

    /** Journals a checkpoint and fsyncs (no-op while replaying: the
     *  record is already on disk from the original run). */
    void checkpoint(const JournalCheckpoint &checkpoint);

    void measureBatchOutcome(std::span<const Assignment> batch,
                             std::span<MeasurementOutcome> out) override;

  private:
    void serveReplayedBatch(std::span<const Assignment> batch,
                            std::span<MeasurementOutcome> out);
    void failBatch(std::span<MeasurementOutcome> out,
                   std::string detail);
    void failUnjournaledBatch(std::span<MeasurementOutcome> out);

    MeasurementJournal journal_;
    std::deque<JournalBatch> replayQueue_;
    std::uint32_t round_ = 0;
    std::uint64_t replayed_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t unjournaled_ = 0;
    bool mismatch_ = false;
    bool ioFailureWarned_ = false;
    std::string mismatchDetail_;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_JOURNAL_HH
