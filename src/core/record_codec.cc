/**
 * @file
 * Record codec implementation: CRC32, FNV-1a, frames and outcomes.
 */

#include "core/record_codec.hh"

#include <array>
#include <limits>

#include "base/check.hh"

namespace statsched
{
namespace core
{

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
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
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
appendFrame(std::vector<std::uint8_t> &out, std::uint8_t type,
            std::span<const std::uint8_t> payload)
{
    SCHED_REQUIRE(payload.size() <= std::numeric_limits<std::uint16_t>::max(),
                  "frame payload exceeds the u16 size field");
    const std::size_t start = out.size();
    RecordWriter w(out);
    w.u8(type);
    w.u16(static_cast<std::uint16_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    w.u32(crc32(out.data() + start, out.size() - start));
}

FrameStatus
readFrame(std::span<const std::uint8_t> bytes, FrameView &frame)
{
    RecordReader head(bytes);
    std::uint8_t type = 0;
    std::uint16_t size = 0;
    if (!head.u8(type) || !head.u16(size) ||
        head.remaining() < std::size_t{size} + 4)
        return FrameStatus::Incomplete;
    const std::size_t checked = 3 + std::size_t{size};
    RecordReader tail(bytes.subspan(checked));
    std::uint32_t stored = 0;
    tail.u32(stored);
    if (crc32(bytes.data(), checked) != stored)
        return FrameStatus::Corrupt;
    frame.type = type;
    frame.payload = bytes.subspan(3, size);
    return FrameStatus::Complete;
}

void
writeOutcome(RecordWriter &out, const MeasurementOutcome &outcome)
{
    out.f64(outcome.value);
    out.u8(static_cast<std::uint8_t>(outcome.status));
    out.u32(outcome.attempts);
}

bool
readOutcome(RecordReader &in, MeasurementOutcome &outcome)
{
    std::uint8_t status = 0;
    if (!in.f64(outcome.value) || !in.u8(status) ||
        status > static_cast<std::uint8_t>(MeasureStatus::Quarantined) ||
        !in.u32(outcome.attempts))
        return false;
    outcome.status = static_cast<MeasureStatus>(status);
    return true;
}

} // namespace core
} // namespace statsched
