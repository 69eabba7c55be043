/**
 * @file
 * Shard wire-protocol tests: frame round-trips over arbitrarily
 * chunked streams, CRC corruption latching, decode shape checks, and
 * the ShardWorker protocol servant — window alignment (reuse,
 * fast-forward, backwards rejection), bit-identical evaluation, and
 * clean shutdown — all in memory, without spawning a process.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/sampler.hh"
#include "core/shard_protocol.hh"
#include "core/shard_worker.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace
{

using namespace statsched;
using core::MeasurementOutcome;
using core::ShardEvalItem;
using core::ShardEvalOutcome;
using core::ShardEvalRequest;
using core::ShardEvalResponse;
using core::ShardFrame;
using core::ShardFrameParser;
using core::ShardHello;
using core::ShardMsg;
using core::ShardWorker;
using core::Topology;
using core::appendEvalResponse;
using core::appendPing;
using core::appendPong;
using core::appendShutdown;
using core::appendWorkerError;

const Topology t2 = Topology::ultraSparcT2();

sim::Workload
workload()
{
    return sim::makeWorkload(sim::Benchmark::IpfwdL1, 8);
}

std::vector<core::Assignment>
drawBatch(std::size_t n, std::uint64_t seed = 7)
{
    core::RandomAssignmentSampler sampler(
        t2, workload().taskCount(), seed);
    return sampler.drawSample(n);
}

/** Drains every complete frame currently buffered. */
std::vector<ShardFrame>
drainFrames(ShardFrameParser &parser)
{
    std::vector<ShardFrame> frames;
    ShardFrame frame;
    while (parser.next(frame))
        frames.push_back(frame);
    return frames;
}

TEST(ShardProtocol, HelloRoundTrip)
{
    ShardHello hello;
    hello.configHash = 0xdeadbeefcafef00dULL;
    hello.cores = 8;
    hello.pipesPerCore = 2;
    hello.strandsPerPipe = 4;
    hello.tasks = 24;

    std::vector<std::uint8_t> bytes;
    appendHello(bytes, hello);

    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    ShardFrame frame;
    ASSERT_TRUE(parser.next(frame));
    EXPECT_EQ(frame.type, static_cast<std::uint8_t>(ShardMsg::Hello));

    ShardHello decoded;
    ASSERT_TRUE(decodeHello(frame, decoded));
    EXPECT_EQ(decoded.version, core::kShardProtocolVersion);
    EXPECT_EQ(decoded.configHash, hello.configHash);
    EXPECT_EQ(decoded.cores, hello.cores);
    EXPECT_EQ(decoded.pipesPerCore, hello.pipesPerCore);
    EXPECT_EQ(decoded.strandsPerPipe, hello.strandsPerPipe);
    EXPECT_EQ(decoded.tasks, hello.tasks);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ShardProtocol, EvalGroupRoundTrip)
{
    ShardEvalRequest request;
    request.reqId = 42;
    request.cursorBase = (1ULL << 40) + 17; // u64 survives the wire
    request.batchSize = 300;
    request.itemCount = 2;

    ShardEvalItem item;
    item.localIndex = 7;
    item.contexts = {0, 3, 9, 63, 17};

    std::vector<std::uint8_t> bytes;
    appendEvalRequest(bytes, request);
    appendEvalItem(bytes, item);

    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    const auto frames = drainFrames(parser);
    ASSERT_EQ(frames.size(), 2u);

    ShardEvalRequest req2;
    ASSERT_TRUE(decodeEvalRequest(frames[0], req2));
    EXPECT_EQ(req2.reqId, request.reqId);
    EXPECT_EQ(req2.cursorBase, request.cursorBase);
    EXPECT_EQ(req2.batchSize, request.batchSize);
    EXPECT_EQ(req2.itemCount, request.itemCount);

    ShardEvalItem item2;
    ASSERT_TRUE(decodeEvalItem(frames[1], item2));
    EXPECT_EQ(item2.localIndex, item.localIndex);
    EXPECT_EQ(item2.contexts, item.contexts);
}

TEST(ShardProtocol, OutcomeRoundTripPreservesValueBits)
{
    // The outcome value crosses the wire as raw IEEE-754 bits; any
    // decimal round-trip would break the bit-identity contract.
    ShardEvalOutcome outcome;
    outcome.localIndex = 3;
    outcome.outcome.value = 0.1 + 0.2; // not exactly 0.3
    outcome.outcome.status = core::MeasureStatus::TimedOut;
    outcome.outcome.attempts = 5;

    std::vector<std::uint8_t> bytes;
    appendEvalResponse(bytes, {9, 1});
    appendEvalOutcome(bytes, outcome);

    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    const auto frames = drainFrames(parser);
    ASSERT_EQ(frames.size(), 2u);

    ShardEvalResponse response;
    ASSERT_TRUE(decodeEvalResponse(frames[0], response));
    EXPECT_EQ(response.reqId, 9u);
    EXPECT_EQ(response.itemCount, 1u);

    ShardEvalOutcome decoded;
    ASSERT_TRUE(decodeEvalOutcome(frames[1], decoded));
    EXPECT_EQ(decoded.localIndex, 3u);
    std::uint64_t sent = 0, got = 0;
    std::memcpy(&sent, &outcome.outcome.value, sizeof sent);
    std::memcpy(&got, &decoded.outcome.value, sizeof got);
    EXPECT_EQ(sent, got);
    EXPECT_EQ(decoded.outcome.status, core::MeasureStatus::TimedOut);
    EXPECT_EQ(decoded.outcome.attempts, 5u);
}

TEST(ShardProtocol, ControlFramesRoundTrip)
{
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 123);
    appendPong(bytes, 123);
    appendShutdown(bytes);
    appendWorkerError(bytes, "window moved backwards");

    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    const auto frames = drainFrames(parser);
    ASSERT_EQ(frames.size(), 4u);

    std::uint32_t nonce = 0;
    EXPECT_EQ(frames[0].type,
              static_cast<std::uint8_t>(ShardMsg::Ping));
    ASSERT_TRUE(decodePingPong(frames[0], nonce));
    EXPECT_EQ(nonce, 123u);
    EXPECT_EQ(frames[1].type,
              static_cast<std::uint8_t>(ShardMsg::Pong));
    EXPECT_EQ(frames[2].type,
              static_cast<std::uint8_t>(ShardMsg::Shutdown));
    EXPECT_TRUE(frames[2].payload.empty());
    std::string detail;
    ASSERT_TRUE(decodeWorkerError(frames[3], detail));
    EXPECT_EQ(detail, "window moved backwards");
}

TEST(ShardProtocol, ByteAtATimeFeedYieldsSameFrames)
{
    // Pipes deliver arbitrary chunk sizes; the parser must reassemble
    // frames across any fragmentation, worst case one byte at a time.
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 0xa5a5a5a5u);
    appendWorkerError(bytes, "x");

    ShardFrameParser parser;
    std::vector<ShardFrame> frames;
    for (const std::uint8_t b : bytes) {
        parser.feed(&b, 1);
        ShardFrame frame;
        while (parser.next(frame))
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 2u);
    std::uint32_t nonce = 0;
    ASSERT_TRUE(decodePingPong(frames[0], nonce));
    EXPECT_EQ(nonce, 0xa5a5a5a5u);
}

TEST(ShardProtocol, CrcCorruptionLatchesTheParser)
{
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 7);
    bytes[4] ^= 0x01; // flip one payload bit

    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    ShardFrame frame;
    EXPECT_FALSE(parser.next(frame));
    EXPECT_TRUE(parser.corrupt());

    // A valid frame after the torn one must NOT resynchronize: the
    // stream is untrustworthy once any CRC failed.
    std::vector<std::uint8_t> good;
    appendPing(good, 8);
    parser.feed(good.data(), good.size());
    EXPECT_FALSE(parser.next(frame));
    EXPECT_TRUE(parser.corrupt());
}

TEST(ShardProtocol, DecodeRejectsWrongTypeAndShape)
{
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 7);
    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    ShardFrame frame;
    ASSERT_TRUE(parser.next(frame));

    ShardHello hello;
    EXPECT_FALSE(decodeHello(frame, hello));
    ShardEvalRequest request;
    EXPECT_FALSE(decodeEvalRequest(frame, request));

    // Truncated payload of the right type.
    frame.type = static_cast<std::uint8_t>(ShardMsg::Hello);
    frame.payload.resize(3);
    EXPECT_FALSE(decodeHello(frame, hello));

    // An item that claims 2^24 contexts and carries none: the claim
    // must be checked against the payload before it sizes anything.
    frame.type = static_cast<std::uint8_t>(ShardMsg::EvalItem);
    frame.payload = {0, 0, 0, 0, 0x00, 0x00, 0x00, 0x01};
    ShardEvalItem item;
    EXPECT_FALSE(decodeEvalItem(frame, item));
    EXPECT_EQ(item.contexts.capacity(), 0u);
}

TEST(ShardProtocol, FrameBytesArePinned)
{
    // One frame of each message, byte for byte as the layouts in
    // shard_protocol.hh define them: a coordinator and a worker from
    // different builds must still understand each other.
    using Bytes = std::vector<std::uint8_t>;
    std::vector<Bytes> frames(9);

    ShardHello hello;
    hello.configHash = 0xdeadbeefcafef00dULL;
    hello.cores = 8;
    hello.pipesPerCore = 2;
    hello.strandsPerPipe = 4;
    hello.tasks = 24;
    appendHello(frames[0], hello);
    core::appendEvalRequest(frames[1], {42, (1ULL << 40) + 17, 300, 2});
    ShardEvalItem item;
    item.localIndex = 7;
    item.contexts = {0, 9, 63};
    appendEvalItem(frames[2], item);
    appendEvalResponse(frames[3], {9, 1});
    ShardEvalOutcome outcome;
    outcome.localIndex = 3;
    outcome.outcome.value = 0.1 + 0.2;
    outcome.outcome.status = core::MeasureStatus::TimedOut;
    outcome.outcome.attempts = 5;
    appendEvalOutcome(frames[4], outcome);
    appendPing(frames[5], 0xa5a5a5a5u);
    appendPong(frames[6], 123);
    appendShutdown(frames[7]);
    appendWorkerError(frames[8], "bad");

    const std::vector<Bytes> expected = {
        {0x10, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0d, 0xf0, 0xfe, 0xca,
         0xef, 0xbe, 0xad, 0xde, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
         0x00, 0x04, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0xb0, 0x67,
         0x17, 0x5c},
        {0x11, 0x14, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
         0x00, 0x01, 0x00, 0x00, 0x2c, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00,
         0x00, 0x41, 0xa5, 0x78, 0x7b},
        {0x12, 0x14, 0x00, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
         0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00,
         0x00, 0x1d, 0x49, 0x99, 0x14},
        {0x13, 0x08, 0x00, 0x09, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
         0x9c, 0x2f, 0xb7, 0xe8},
        {0x14, 0x11, 0x00, 0x03, 0x00, 0x00, 0x00, 0x34, 0x33, 0x33, 0x33,
         0x33, 0x33, 0xd3, 0x3f, 0x02, 0x05, 0x00, 0x00, 0x00, 0x37, 0xeb,
         0x18, 0x9e},
        {0x15, 0x04, 0x00, 0xa5, 0xa5, 0xa5, 0xa5, 0x76, 0x47, 0xd1, 0xe3},
        {0x16, 0x04, 0x00, 0x7b, 0x00, 0x00, 0x00, 0x01, 0x13, 0xcd, 0xbe},
        {0x17, 0x00, 0x00, 0xe7, 0x6c, 0x28, 0xe6},
        {0x18, 0x03, 0x00, 0x62, 0x61, 0x64, 0x6c, 0xbb, 0x8d, 0x64},
    };
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(frames[i], expected[i]) << "message " << i;
}

TEST(ShardProtocol, ConfigFingerprintMatchesFnv1aVectors)
{
    // The published FNV-1a 64-bit test vectors.
    EXPECT_EQ(core::shardConfigFingerprint(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(core::shardConfigFingerprint("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(core::shardConfigFingerprint("foobar"),
              0x85944171f73967e8ull);
}

TEST(ShardProtocol, ConfigFingerprintSeparatesConfigs)
{
    const std::uint64_t a =
        core::shardConfigFingerprint("aho|8|5|0|0|0|1");
    const std::uint64_t b =
        core::shardConfigFingerprint("aho|8|5|0|0|0|2");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, core::shardConfigFingerprint("aho|8|5|0|0|0|1"));
    EXPECT_NE(core::shardConfigFingerprint(""), 0u);
}

// --- ShardWorker ------------------------------------------------

/** Worker over a fresh simulated engine, plus the plumbing to talk
 *  to it from a test. */
struct WorkerHarness
{
    sim::SimulatedEngine engine{workload()};
    ShardWorker worker{engine, t2, workload().taskCount(), 77};
    ShardFrameParser fromWorker;

    /** Feeds coordinator bytes, collects response frames. */
    bool
    roundTrip(const std::vector<std::uint8_t> &bytes,
              std::vector<ShardFrame> &frames)
    {
        std::vector<std::uint8_t> out;
        const bool serving =
            worker.consume(bytes.data(), bytes.size(), out);
        fromWorker.feed(out.data(), out.size());
        frames = drainFrames(fromWorker);
        return serving;
    }

    /** Sends one request group for `indices` of the given window. */
    std::vector<std::uint8_t>
    requestBytes(std::uint32_t reqId, std::uint64_t cursorBase,
                 std::uint32_t batchSize,
                 const std::vector<std::size_t> &indices,
                 const std::vector<core::Assignment> &batch)
    {
        std::vector<std::uint8_t> bytes;
        ShardEvalRequest request;
        request.reqId = reqId;
        request.cursorBase = cursorBase;
        request.batchSize = batchSize;
        request.itemCount =
            static_cast<std::uint32_t>(indices.size());
        appendEvalRequest(bytes, request);
        for (const std::size_t idx : indices) {
            ShardEvalItem item;
            item.localIndex = static_cast<std::uint32_t>(idx);
            item.contexts = batch[idx].contexts();
            appendEvalItem(bytes, item);
        }
        return bytes;
    }
};

/** Outcomes the coordinator-side (unsharded) engine would produce
 *  for window position `i`, after reserving `skip` indices. */
std::vector<MeasurementOutcome>
referenceOutcomes(const std::vector<core::Assignment> &batch,
                  std::size_t skip = 0)
{
    sim::SimulatedEngine reference(workload());
    reference.reserveMeasurementIndices(skip);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    reference.measureBatchOutcome(batch, outcomes);
    return outcomes;
}

void
expectSameOutcome(const MeasurementOutcome &a,
                  const MeasurementOutcome &b, std::size_t i)
{
    std::uint64_t abits = 0, bbits = 0;
    std::memcpy(&abits, &a.value, sizeof abits);
    std::memcpy(&bbits, &b.value, sizeof bbits);
    EXPECT_EQ(abits, bbits) << "value bits differ at " << i;
    EXPECT_EQ(a.status, b.status) << "status differs at " << i;
}

TEST(ShardWorker, HelloDescribesEngineAndConfig)
{
    WorkerHarness h;
    const auto bytes = h.worker.helloBytes();
    ShardFrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    ShardFrame frame;
    ASSERT_TRUE(parser.next(frame));
    ShardHello hello;
    ASSERT_TRUE(decodeHello(frame, hello));
    EXPECT_EQ(hello.version, core::kShardProtocolVersion);
    EXPECT_EQ(hello.configHash, 77u);
    EXPECT_EQ(hello.cores, t2.cores);
    EXPECT_EQ(hello.pipesPerCore, t2.pipesPerCore);
    EXPECT_EQ(hello.strandsPerPipe, t2.strandsPerPipe);
    EXPECT_EQ(hello.tasks, workload().taskCount());
}

TEST(ShardWorker, EvaluatesWindowBitIdentically)
{
    WorkerHarness h;
    const auto batch = drawBatch(6);
    const auto expected = referenceOutcomes(batch);

    std::vector<std::size_t> all(batch.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    std::vector<ShardFrame> frames;
    ASSERT_TRUE(h.roundTrip(
        h.requestBytes(1, 0, 6, all, batch), frames));
    ASSERT_EQ(frames.size(), 1u + batch.size());

    ShardEvalResponse response;
    ASSERT_TRUE(decodeEvalResponse(frames[0], response));
    EXPECT_EQ(response.reqId, 1u);
    EXPECT_EQ(response.itemCount, batch.size());
    for (std::size_t i = 1; i < frames.size(); ++i) {
        ShardEvalOutcome outcome;
        ASSERT_TRUE(decodeEvalOutcome(frames[i], outcome));
        expectSameOutcome(outcome.outcome,
                          expected[outcome.localIndex],
                          outcome.localIndex);
    }
    EXPECT_EQ(h.worker.servedRequests(), 1u);
    EXPECT_EQ(h.worker.consumedIndices(), 6u);
}

TEST(ShardWorker, ReissueReusesTheOpenWindow)
{
    // Two requests against the SAME (cursorBase, batchSize) window —
    // the second is what survivors receive when a sibling shard dies
    // mid-batch. Both must serve from the same reserved kernel.
    WorkerHarness h;
    const auto batch = drawBatch(6);
    const auto expected = referenceOutcomes(batch);

    std::vector<ShardFrame> frames;
    ASSERT_TRUE(h.roundTrip(
        h.requestBytes(1, 0, 6, {0, 1, 2}, batch), frames));
    ASSERT_TRUE(h.roundTrip(
        h.requestBytes(2, 0, 6, {3, 4, 5}, batch), frames));
    ASSERT_EQ(frames.size(), 4u);
    for (std::size_t i = 1; i < frames.size(); ++i) {
        ShardEvalOutcome outcome;
        ASSERT_TRUE(decodeEvalOutcome(frames[i], outcome));
        expectSameOutcome(outcome.outcome,
                          expected[outcome.localIndex],
                          outcome.localIndex);
    }
    // Re-serving the open window reserved nothing new.
    EXPECT_EQ(h.worker.consumedIndices(), 6u);
}

TEST(ShardWorker, FastForwardsToALaterWindow)
{
    // A replacement worker joins mid-campaign: its first request
    // names a window far ahead of its fresh engine, which must
    // fast-forward so the outcomes match the original stream.
    WorkerHarness h;
    const auto batch = drawBatch(4);
    const auto expected = referenceOutcomes(batch, 100);

    std::vector<std::size_t> all{0, 1, 2, 3};
    std::vector<ShardFrame> frames;
    ASSERT_TRUE(h.roundTrip(
        h.requestBytes(1, 100, 4, all, batch), frames));
    ASSERT_EQ(frames.size(), 5u);
    for (std::size_t i = 1; i < frames.size(); ++i) {
        ShardEvalOutcome outcome;
        ASSERT_TRUE(decodeEvalOutcome(frames[i], outcome));
        expectSameOutcome(outcome.outcome,
                          expected[outcome.localIndex],
                          outcome.localIndex);
    }
    EXPECT_EQ(h.worker.consumedIndices(), 104u);
}

TEST(ShardWorker, BackwardsWindowIsAProtocolError)
{
    WorkerHarness h;
    const auto batch = drawBatch(2);
    std::vector<ShardFrame> frames;
    ASSERT_TRUE(h.roundTrip(
        h.requestBytes(1, 100, 2, {0, 1}, batch), frames));

    // The per-index streams only move forward.
    EXPECT_FALSE(h.roundTrip(
        h.requestBytes(2, 50, 2, {0, 1}, batch), frames));
    EXPECT_TRUE(h.worker.protocolError());
    EXPECT_FALSE(h.worker.errorDetail().empty());
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type,
              static_cast<std::uint8_t>(ShardMsg::WorkerError));
}

TEST(ShardWorker, PingPongAndShutdown)
{
    WorkerHarness h;
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 31337);
    std::vector<ShardFrame> frames;
    ASSERT_TRUE(h.roundTrip(bytes, frames));
    ASSERT_EQ(frames.size(), 1u);
    std::uint32_t nonce = 0;
    ASSERT_TRUE(decodePingPong(frames[0], nonce));
    EXPECT_EQ(frames[0].type,
              static_cast<std::uint8_t>(ShardMsg::Pong));
    EXPECT_EQ(nonce, 31337u);

    bytes.clear();
    appendShutdown(bytes);
    EXPECT_FALSE(h.roundTrip(bytes, frames));
    EXPECT_FALSE(h.worker.protocolError()); // clean stop, not a fault
}

TEST(ShardWorker, CorruptStreamIsAProtocolError)
{
    WorkerHarness h;
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, 1);
    bytes[4] ^= 0x80;
    std::vector<ShardFrame> frames;
    EXPECT_FALSE(h.roundTrip(bytes, frames));
    EXPECT_TRUE(h.worker.protocolError());
}

} // anonymous namespace
