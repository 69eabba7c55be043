/**
 * @file
 * Wire protocol between a sharding coordinator and its workers.
 *
 * core::ShardedEngine partitions measurement batches across worker
 * processes (tools/statsched_worker.cc) over plain stdin/stdout
 * pipes. Messages are the frames of core/record_codec.hh, the one
 * definition of the frame, field and outcome layouts, which the
 * measurement journal (core/journal.hh) writes to disk too:
 *
 *   frame := type:u8 size:u16 payload:size*u8 crc:u32
 *
 * so one codec protects both the on-disk and the on-pipe
 * representation of a measurement, and a frame torn by a dying
 * worker is detected the same way a torn journal record is: by its
 * CRC, never trusted.
 *
 * Messages (payload layouts; multi-byte integers little-endian):
 *
 *   Hello        (w->c)  version:u32 configHash:u64 cores:u32
 *                        pipesPerCore:u32 strandsPerPipe:u32
 *                        tasks:u32
 *   EvalRequest  (c->w)  reqId:u32 cursorBase:u64 batchSize:u32
 *                        itemCount:u32
 *   EvalItem     (c->w)  localIndex:u32 contextCount:u32
 *                        contexts:contextCount*u32
 *   EvalResponse (w->c)  reqId:u32 itemCount:u32
 *   EvalOutcome  (w->c)  localIndex:u32 outcome
 *                        (outcome = valueBits:u64 status:u8
 *                         attempts:u32)
 *   Ping         (c->w)  nonce:u32
 *   Pong         (w->c)  nonce:u32
 *   Shutdown     (c->w)  (empty)
 *   WorkerError  (w->c)  (payload: UTF-8 description)
 *
 * An EvalRequest group is the request frame followed by exactly
 * itemCount EvalItem frames; the response group mirrors it. The
 * determinism contract rides on (cursorBase, batchSize): the worker
 * evaluates item localIndex of the request through a batch kernel
 * reserved at measurement index cursorBase (see
 * core/shard_worker.hh), so the outcome of every (assignment,
 * global index) pair is the same whichever worker computes it —
 * which is what makes shard failover and re-issue invisible in the
 * results.
 */

#ifndef STATSCHED_CORE_SHARD_PROTOCOL_HH
#define STATSCHED_CORE_SHARD_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/performance_engine.hh"
#include "core/topology.hh"

namespace statsched
{
namespace core
{

/** Protocol version; a Hello with any other version is rejected. */
constexpr std::uint32_t kShardProtocolVersion = 1;

/** Frame type ids (distinct from the journal's record types; the two
 *  streams never mix, but distinct ids keep hexdumps unambiguous). */
enum class ShardMsg : std::uint8_t
{
    Hello = 0x10,
    EvalRequest = 0x11,
    EvalItem = 0x12,
    EvalResponse = 0x13,
    EvalOutcome = 0x14,
    Ping = 0x15,
    Pong = 0x16,
    Shutdown = 0x17,
    WorkerError = 0x18,
};

/** One parsed frame: a type byte and its CRC-verified payload. */
struct ShardFrame
{
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
};

/**
 * Incremental frame parser over an arbitrarily-chunked byte stream
 * (pipes deliver whatever sizes they like). Feed bytes, then drain
 * complete frames; a CRC mismatch latches corrupt() — the stream is
 * untrustworthy from that point on and the peer must be treated as
 * failed, exactly like a torn journal tail.
 */
class ShardFrameParser
{
  public:
    /** Appends raw bytes to the parse buffer. */
    void feed(const std::uint8_t *data, std::size_t size);

    /** Pops the next complete frame. @return false when no complete
     *  frame is buffered (or the stream is corrupt). */
    bool next(ShardFrame &frame);

    /** @return true once any frame failed its CRC; latched. */
    bool corrupt() const { return corrupt_; }

    /** @return bytes buffered but not yet consumed. */
    std::size_t buffered() const { return buffer_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    bool corrupt_ = false;
};

// --- Typed message payloads -------------------------------------

/** Worker self-identification, validated by the coordinator. */
struct ShardHello
{
    std::uint32_t version = kShardProtocolVersion;
    std::uint64_t configHash = 0;
    std::uint32_t cores = 0;
    std::uint32_t pipesPerCore = 0;
    std::uint32_t strandsPerPipe = 0;
    std::uint32_t tasks = 0;

    /** @return the Hello of a worker serving `tasks` tasks on
     *  `topology` for the engine configuration `configHash`. */
    static ShardHello
    forCampaign(const Topology &topology, std::uint32_t tasks,
                std::uint64_t configHash)
    {
        ShardHello hello;
        hello.configHash = configHash;
        hello.cores = topology.cores;
        hello.pipesPerCore = topology.pipesPerCore;
        hello.strandsPerPipe = topology.strandsPerPipe;
        hello.tasks = tasks;
        return hello;
    }
};

/** Header of an evaluation request group. */
struct ShardEvalRequest
{
    std::uint32_t reqId = 0;
    /** Global measurement index of batch position 0. */
    std::uint64_t cursorBase = 0;
    /** Size of the whole coordinator-side batch (the kernel span). */
    std::uint32_t batchSize = 0;
    /** EvalItem frames following this header. */
    std::uint32_t itemCount = 0;
};

/** One assignment to evaluate at batch position localIndex. */
struct ShardEvalItem
{
    std::uint32_t localIndex = 0;
    std::vector<ContextId> contexts;
};

/** Header of an evaluation response group. */
struct ShardEvalResponse
{
    std::uint32_t reqId = 0;
    std::uint32_t itemCount = 0;
};

/** One measurement outcome at batch position localIndex. */
struct ShardEvalOutcome
{
    std::uint32_t localIndex = 0;
    MeasurementOutcome outcome;
};

void appendHello(std::vector<std::uint8_t> &out,
                 const ShardHello &hello);
void appendEvalRequest(std::vector<std::uint8_t> &out,
                       const ShardEvalRequest &request);
void appendEvalItem(std::vector<std::uint8_t> &out,
                    const ShardEvalItem &item);
void appendEvalResponse(std::vector<std::uint8_t> &out,
                        const ShardEvalResponse &response);
void appendEvalOutcome(std::vector<std::uint8_t> &out,
                       const ShardEvalOutcome &outcome);
void appendPing(std::vector<std::uint8_t> &out, std::uint32_t nonce);
void appendPong(std::vector<std::uint8_t> &out, std::uint32_t nonce);
void appendShutdown(std::vector<std::uint8_t> &out);
void appendWorkerError(std::vector<std::uint8_t> &out,
                       const std::string &detail);

/** Each decode returns false on a size/shape mismatch (a protocol
 *  violation by the peer — treat the peer as failed). */
bool decodeHello(const ShardFrame &frame, ShardHello &hello);
bool decodeEvalRequest(const ShardFrame &frame,
                       ShardEvalRequest &request);
bool decodeEvalItem(const ShardFrame &frame, ShardEvalItem &item);
bool decodeEvalResponse(const ShardFrame &frame,
                        ShardEvalResponse &response);
bool decodeEvalOutcome(const ShardFrame &frame,
                       ShardEvalOutcome &outcome);
bool decodePingPong(const ShardFrame &frame, std::uint32_t &nonce);
bool decodeWorkerError(const ShardFrame &frame, std::string &detail);

/**
 * FNV-1a of a canonical engine-configuration string. The coordinator
 * hashes the flags that steer measurement values and passes the hash
 * to each worker, whose Hello echoes it — a worker built from a
 * different configuration (wrong binary, stale flags) is rejected at
 * handshake instead of silently corrupting the sample.
 */
std::uint64_t shardConfigFingerprint(const std::string &config);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_SHARD_PROTOCOL_HH
