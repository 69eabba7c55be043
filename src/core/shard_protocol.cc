/**
 * @file
 * Shard wire-protocol implementation: the frame parser and the typed
 * message encoders/decoders, over the record codec.
 */

#include "core/shard_protocol.hh"

#include <algorithm>

#include "core/record_codec.hh"

namespace statsched
{
namespace core
{

void
ShardFrameParser::feed(const std::uint8_t *data, std::size_t size)
{
    if (corrupt_)
        return; // nothing after a CRC failure is trustworthy
    // Compact the consumed prefix before growing the buffer.
    if (pos_ > 0 && pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
    } else if (pos_ > 4096) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

bool
ShardFrameParser::next(ShardFrame &frame)
{
    if (corrupt_)
        return false;
    FrameView view;
    switch (readFrame(std::span<const std::uint8_t>(buffer_).subspan(pos_),
                      view)) {
      case FrameStatus::Incomplete:
        return false;
      case FrameStatus::Corrupt:
        corrupt_ = true;
        return false;
      case FrameStatus::Complete:
        break;
    }
    frame.type = view.type;
    frame.payload.assign(view.payload.begin(), view.payload.end());
    pos_ += view.size();
    return true;
}

namespace
{

/** Appends one `type` message framed around `payload`. */
void
appendMessage(std::vector<std::uint8_t> &out, ShardMsg type,
              std::span<const std::uint8_t> payload)
{
    appendFrame(out, static_cast<std::uint8_t>(type), payload);
}

/** @return true when `frame` is a `type` message. */
bool
isMessage(const ShardFrame &frame, ShardMsg type)
{
    return frame.type == static_cast<std::uint8_t>(type);
}

} // anonymous namespace

void
appendHello(std::vector<std::uint8_t> &out, const ShardHello &hello)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u32(hello.version);
    w.u64(hello.configHash);
    w.u32(hello.cores);
    w.u32(hello.pipesPerCore);
    w.u32(hello.strandsPerPipe);
    w.u32(hello.tasks);
    appendMessage(out, ShardMsg::Hello, payload);
}

void
appendEvalRequest(std::vector<std::uint8_t> &out,
                  const ShardEvalRequest &request)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u32(request.reqId);
    w.u64(request.cursorBase);
    w.u32(request.batchSize);
    w.u32(request.itemCount);
    appendMessage(out, ShardMsg::EvalRequest, payload);
}

void
appendEvalItem(std::vector<std::uint8_t> &out,
               const ShardEvalItem &item)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u32(item.localIndex);
    w.u32(static_cast<std::uint32_t>(item.contexts.size()));
    for (const ContextId ctx : item.contexts)
        w.u32(ctx);
    appendMessage(out, ShardMsg::EvalItem, payload);
}

void
appendEvalResponse(std::vector<std::uint8_t> &out,
                   const ShardEvalResponse &response)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u32(response.reqId);
    w.u32(response.itemCount);
    appendMessage(out, ShardMsg::EvalResponse, payload);
}

void
appendEvalOutcome(std::vector<std::uint8_t> &out,
                  const ShardEvalOutcome &outcome)
{
    std::vector<std::uint8_t> payload;
    RecordWriter w(payload);
    w.u32(outcome.localIndex);
    writeOutcome(w, outcome.outcome);
    appendMessage(out, ShardMsg::EvalOutcome, payload);
}

void
appendPing(std::vector<std::uint8_t> &out, std::uint32_t nonce)
{
    std::vector<std::uint8_t> payload;
    RecordWriter(payload).u32(nonce);
    appendMessage(out, ShardMsg::Ping, payload);
}

void
appendPong(std::vector<std::uint8_t> &out, std::uint32_t nonce)
{
    std::vector<std::uint8_t> payload;
    RecordWriter(payload).u32(nonce);
    appendMessage(out, ShardMsg::Pong, payload);
}

void
appendShutdown(std::vector<std::uint8_t> &out)
{
    appendMessage(out, ShardMsg::Shutdown, {});
}

void
appendWorkerError(std::vector<std::uint8_t> &out,
                  const std::string &detail)
{
    // Truncate rather than fail: the description is diagnostic only.
    const std::size_t n = std::min<std::size_t>(detail.size(), 1024);
    appendMessage(
        out, ShardMsg::WorkerError,
        {reinterpret_cast<const std::uint8_t *>(detail.data()), n});
}

bool
decodeHello(const ShardFrame &frame, ShardHello &hello)
{
    RecordReader in(frame.payload);
    return isMessage(frame, ShardMsg::Hello) && in.u32(hello.version) &&
        in.u64(hello.configHash) && in.u32(hello.cores) &&
        in.u32(hello.pipesPerCore) && in.u32(hello.strandsPerPipe) &&
        in.u32(hello.tasks) && in.exhausted();
}

bool
decodeEvalRequest(const ShardFrame &frame, ShardEvalRequest &request)
{
    RecordReader in(frame.payload);
    return isMessage(frame, ShardMsg::EvalRequest) &&
        in.u32(request.reqId) && in.u64(request.cursorBase) &&
        in.u32(request.batchSize) && in.u32(request.itemCount) &&
        in.exhausted();
}

bool
decodeEvalItem(const ShardFrame &frame, ShardEvalItem &item)
{
    RecordReader in(frame.payload);
    std::uint32_t count = 0;
    // The count comes off the wire: it must match the payload before
    // it sizes anything.
    if (!isMessage(frame, ShardMsg::EvalItem) ||
        !in.u32(item.localIndex) || !in.u32(count) ||
        in.remaining() != std::size_t{count} * sizeof(ContextId))
        return false;
    item.contexts.resize(count);
    for (ContextId &ctx : item.contexts)
        in.u32(ctx);
    return true;
}

bool
decodeEvalResponse(const ShardFrame &frame,
                   ShardEvalResponse &response)
{
    RecordReader in(frame.payload);
    return isMessage(frame, ShardMsg::EvalResponse) &&
        in.u32(response.reqId) && in.u32(response.itemCount) &&
        in.exhausted();
}

bool
decodeEvalOutcome(const ShardFrame &frame, ShardEvalOutcome &outcome)
{
    RecordReader in(frame.payload);
    return isMessage(frame, ShardMsg::EvalOutcome) &&
        in.u32(outcome.localIndex) && readOutcome(in, outcome.outcome) &&
        in.exhausted();
}

bool
decodePingPong(const ShardFrame &frame, std::uint32_t &nonce)
{
    RecordReader in(frame.payload);
    return (isMessage(frame, ShardMsg::Ping) ||
            isMessage(frame, ShardMsg::Pong)) &&
        in.u32(nonce) && in.exhausted();
}

bool
decodeWorkerError(const ShardFrame &frame, std::string &detail)
{
    if (!isMessage(frame, ShardMsg::WorkerError))
        return false;
    detail.assign(frame.payload.begin(), frame.payload.end());
    return true;
}

std::uint64_t
shardConfigFingerprint(const std::string &config)
{
    return fnv1a64(config);
}

} // namespace core
} // namespace statsched
