/**
 * @file
 * The byte codec of measurement records: the one definition of the
 * frame and field layout shared by the measurement journal
 * (core/journal.hh, on disk) and the shard protocol
 * (core/shard_protocol.hh, on a pipe).
 *
 * Both streams are sequences of frames:
 *
 *   frame   := type:u8 size:u16 payload:size*u8 crc:u32
 *              (crc = crc32 of type + size + payload)
 *
 * and wherever a measurement outcome crosses either of them, it is
 * the same triple:
 *
 *   outcome := valueBits:u64 status:u8 attempts:u32
 *
 * All integers are little-endian; a double travels as its raw
 * IEEE-754 bits, so a value read back is bit-identical to the value
 * written. A frame whose CRC does not match is never trusted: a torn
 * journal tail and a frame garbled by a dying worker are detected the
 * same way. The journal's record types and the shard messages, and
 * which fields each carries, stay with their own modules.
 */

#ifndef STATSCHED_CORE_RECORD_CODEC_HH
#define STATSCHED_CORE_RECORD_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "core/performance_engine.hh"

namespace statsched
{
namespace core
{

/**
 * CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected) of a byte
 * range. Chainable: pass the previous return value as `seed` to
 * extend a running checksum.
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** @return the 64-bit FNV-1a hash of `bytes`. */
std::uint64_t fnv1a64(std::string_view bytes);

/** Appends little-endian fields to a byte buffer. */
class RecordWriter
{
  public:
    explicit RecordWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) { put(v, 2); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

  private:
    void
    put(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> &out_;
};

/**
 * Reads little-endian fields from a byte range. Every read checks the
 * bounds first: it returns false, and consumes nothing, when fewer
 * bytes remain than the field needs.
 */
class RecordReader
{
  public:
    explicit RecordReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    bool u8(std::uint8_t &v) { return get(v); }
    bool u16(std::uint16_t &v) { return get(v); }
    bool u32(std::uint32_t &v) { return get(v); }
    bool u64(std::uint64_t &v) { return get(v); }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    /** @return bytes not yet read. */
    std::size_t remaining() const { return bytes_.size() - pos_; }

    /** @return true once every byte has been read. */
    bool exhausted() const { return pos_ == bytes_.size(); }

  private:
    template <typename T>
    bool
    get(T &v)
    {
        if (remaining() < sizeof(T))
            return false;
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            x |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
        pos_ += sizeof(T);
        v = static_cast<T>(x);
        return true;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/** Bytes a frame adds around its payload: type, size and crc. */
constexpr std::size_t kFrameOverhead = 1 + 2 + 4;

/** Appends one frame. The payload must fit the u16 size field. */
void appendFrame(std::vector<std::uint8_t> &out, std::uint8_t type,
                 std::span<const std::uint8_t> payload);

/** What readFrame() found at the start of a byte range. */
enum class FrameStatus : std::uint8_t
{
    Complete,   //!< a whole frame whose CRC matches
    Incomplete, //!< the range ends inside the frame (or is empty)
    Corrupt,    //!< a whole frame whose CRC does not match
};

/** One complete frame, viewed in place in the buffer it was read
 *  from (valid as long as that buffer is). */
struct FrameView
{
    std::uint8_t type = 0;
    std::span<const std::uint8_t> payload;

    /** @return the frame's length in the buffer. */
    std::size_t size() const { return kFrameOverhead + payload.size(); }
};

/**
 * Checks the frame at the start of `bytes` without copying it. On
 * Complete, `frame` views its type and payload; otherwise `frame` is
 * left as it was.
 */
FrameStatus readFrame(std::span<const std::uint8_t> bytes,
                      FrameView &frame);

/** Appends an outcome triple. */
void writeOutcome(RecordWriter &out, const MeasurementOutcome &outcome);

/** Reads an outcome triple. @return false when the bytes run out or
 *  the status is not a MeasureStatus. */
bool readOutcome(RecordReader &in, MeasurementOutcome &outcome);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_RECORD_CODEC_HH
