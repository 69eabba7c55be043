/**
 * @file
 * ShardWorker implementation: frame pump, request assembly, and the
 * cursor-aligned kernel evaluation that keeps shard outcomes
 * bit-identical to the in-process path.
 */

#include "core/shard_worker.hh"

#include <utility>

#include "base/check.hh"
#include "core/assignment.hh"

namespace statsched
{
namespace core
{

ShardWorker::ShardWorker(PerformanceEngine &engine,
                         const Topology &topology,
                         std::uint32_t tasks,
                         std::uint64_t configHash)
    : engine_(engine), topology_(topology), tasks_(tasks),
      configHash_(configHash)
{
}

std::vector<std::uint8_t>
ShardWorker::helloBytes() const
{
    std::vector<std::uint8_t> out;
    appendHello(out,
                ShardHello::forCampaign(topology_, tasks_, configHash_));
    return out;
}

bool
ShardWorker::fail(const std::string &detail,
                  std::vector<std::uint8_t> &out)
{
    protocolError_ = true;
    errorDetail_ = detail;
    appendWorkerError(out, detail);
    return false;
}

bool
ShardWorker::consume(const std::uint8_t *data, std::size_t size,
                     std::vector<std::uint8_t> &out)
{
    if (protocolError_)
        return false;
    parser_.feed(data, size);
    ShardFrame frame;
    while (parser_.next(frame)) {
        if (!handleFrame(frame, out))
            return false;
    }
    if (parser_.corrupt())
        return fail("corrupt frame from coordinator", out);
    return true;
}

bool
ShardWorker::handleFrame(const ShardFrame &frame,
                         std::vector<std::uint8_t> &out)
{
    const ShardMsg type = static_cast<ShardMsg>(frame.type);

    if (inRequest_) {
        // Mid-group only EvalItem frames are legal.
        ShardEvalItem item;
        if (type != ShardMsg::EvalItem ||
            !decodeEvalItem(frame, item))
            return fail("expected EvalItem within request group",
                        out);
        if (item.localIndex >= request_.batchSize)
            return fail("item index outside the batch window", out);
        items_.push_back(std::move(item));
        if (items_.size() < request_.itemCount)
            return true;
        inRequest_ = false;
        return serveRequest(out);
    }

    switch (type) {
      case ShardMsg::EvalRequest: {
        if (!decodeEvalRequest(frame, request_))
            return fail("malformed EvalRequest", out);
        if (request_.itemCount == 0 || request_.batchSize == 0 ||
            request_.itemCount > request_.batchSize)
            return fail("EvalRequest with impossible counts", out);
        items_.clear();
        inRequest_ = true;
        return true;
      }
      case ShardMsg::Ping: {
        std::uint32_t nonce = 0;
        if (!decodePingPong(frame, nonce))
            return fail("malformed Ping", out);
        appendPong(out, nonce);
        return true;
      }
      case ShardMsg::Shutdown:
        return false; // clean stop; protocolError_ stays false
      default:
        return fail("unexpected frame type", out);
    }
}

bool
ShardWorker::alignKernel(std::uint64_t cursorBase,
                         std::uint32_t batchSize)
{
    if (kernel_ && openBase_ == cursorBase && openSize_ == batchSize)
        return true; // re-issue within the open window

    if (cursorBase < consumed_)
        return false; // index streams only move forward

    // Fast-forward to the window, then reserve it. A freshly spawned
    // replacement worker lands here with consumed_ == 0 and skips
    // straight to the campaign's current position.
    engine_.reserveMeasurementIndices(
        static_cast<std::size_t>(cursorBase - consumed_));
    kernel_ = engine_.outcomeKernel(batchSize);
    if (!kernel_)
        return false; // engine cannot serve sparse shard items
    openBase_ = cursorBase;
    openSize_ = batchSize;
    consumed_ = cursorBase + batchSize;
    return true;
}

bool
ShardWorker::serveRequest(std::vector<std::uint8_t> &out)
{
    if (!alignKernel(request_.cursorBase, request_.batchSize)) {
        return fail("cannot align to request window (cursor moved "
                    "backwards, or the engine publishes no kernel)",
                    out);
    }

    ShardEvalResponse response;
    response.reqId = request_.reqId;
    response.itemCount = request_.itemCount;
    appendEvalResponse(out, response);

    for (const ShardEvalItem &item : items_) {
        ShardEvalOutcome result;
        result.localIndex = item.localIndex;
        if (item.contexts.size() != tasks_ ||
            !Assignment::isValid(topology_, item.contexts)) {
            // A malformed assignment is the coordinator's bug, but
            // failing the single item (Errored) keeps the batch
            // accounting intact instead of wedging the pipe.
            result.outcome = MeasurementOutcome::failure(
                MeasureStatus::Errored);
        } else {
            const Assignment assignment(topology_, item.contexts);
            result.outcome = kernel_(
                assignment,
                static_cast<std::size_t>(item.localIndex));
        }
        appendEvalOutcome(out, result);
    }
    items_.clear();
    ++served_;
    return true;
}

} // namespace core
} // namespace statsched
