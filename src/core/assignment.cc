/**
 * @file
 * Assignment implementation.
 *
 * The canonical key sorts task lists within pipes, sorts the two pipe
 * lists within each core, and finally sorts the per-core descriptors —
 * exactly the hardware symmetries (strand, pipe, core permutations)
 * under which the contention model is invariant. The packed form
 * reaches the same partition without sorting, by labeling cores and
 * pipes in order of first appearance.
 */

#include "core/assignment.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <string_view>
#include "base/check.hh"

namespace statsched
{
namespace core
{

Assignment::Assignment(const Topology &topology,
                       std::vector<ContextId> contexts)
    : topology_(topology), contexts_(std::move(contexts))
{
    SCHED_REQUIRE(!contexts_.empty(), "empty assignment");
    SCHED_REQUIRE(isValid(topology_, contexts_),
                  "invalid assignment: out of range or duplicate "
                  "context");
}

bool
Assignment::isValid(const Topology &topology,
                    const std::vector<ContextId> &contexts)
{
    // Occupancy bitmap: one word covers every shape up to 64 contexts,
    // the T2 included, without touching the heap; wider shapes take
    // one word per 64 contexts.
    const std::uint32_t v = topology.contexts();
    std::uint64_t narrow = 0;
    std::vector<std::uint64_t> wide;
    std::uint64_t *seen = &narrow;
    if (v > 64) {
        wide.assign((v + 63) / 64, 0);
        seen = wide.data();
    }
    for (const ContextId ctx : contexts) {
        if (ctx >= v)
            return false;
        const std::uint64_t bit = std::uint64_t{1} << (ctx % 64);
        if (seen[ctx / 64] & bit)
            return false;
        seen[ctx / 64] |= bit;
    }
    return true;
}

std::vector<std::vector<TaskId>>
Assignment::tasksByPipe() const
{
    std::vector<std::vector<TaskId>> by_pipe(topology_.pipes());
    for (TaskId t = 0; t < contexts_.size(); ++t)
        by_pipe[pipeOf(t)].push_back(t);
    return by_pipe;
}

std::vector<std::vector<TaskId>>
Assignment::tasksByCore() const
{
    std::vector<std::vector<TaskId>> by_core(topology_.cores);
    for (TaskId t = 0; t < contexts_.size(); ++t)
        by_core[coreOf(t)].push_back(t);
    return by_core;
}

namespace
{

/**
 * Counting-sort CSR grouping over a per-task group id. Tasks are
 * visited in ascending id order, so each group's member list is
 * ascending — matching the vector-of-vectors groupings above.
 */
template <typename GroupFn, typename Offsets, typename Flat>
void
groupInto(std::size_t tasks, std::size_t groups, GroupFn group_of,
          Offsets &offsets, Flat &flat)
{
    offsets.assign(groups + 1, 0);
    for (TaskId t = 0; t < tasks; ++t)
        ++offsets[group_of(t) + 1];
    for (std::size_t g = 1; g <= groups; ++g)
        offsets[g] += offsets[g - 1];
    flat.resize(tasks);
    // Second pass advances offsets[g] as the write cursor of group g,
    // leaving it at the start of group g + 1; the rotation restores
    // the start offsets.
    for (TaskId t = 0; t < tasks; ++t)
        flat[offsets[group_of(t)]++] = t;
    for (std::size_t g = groups; g > 0; --g)
        offsets[g] = offsets[g - 1];
    offsets[0] = 0;
}

} // anonymous namespace

void
Assignment::tasksByPipeInto(std::vector<std::uint32_t> &offsets,
                            std::vector<TaskId> &flat) const
{
    groupInto(contexts_.size(), topology_.pipes(),
              [this](TaskId t) { return pipeOf(t); }, offsets, flat);
}

std::string
Assignment::canonicalKey() const
{
    // The key is "{" + the core's pipe keys in string order + "}" per
    // occupied core, cores in string order; a pipe key is "[" then
    // "id," per task in ascending id order, then "]". Journals store a
    // hash of these bytes, so they must never change.
    const std::size_t tasks = contexts_.size();
    const std::size_t cores = topology_.cores;
    const std::size_t per_core = topology_.pipesPerCore;
    const std::size_t pipes = cores * per_core;

    // Scratch comes from a stack arena; only shapes far wider than the
    // T2 spill over to the heap.
    std::array<std::byte, 4096> stack;
    std::pmr::monotonic_buffer_resource arena(stack.data(),
                                              stack.size());

    // The counting sort keeps each pipe's task ids ascending.
    std::pmr::vector<std::uint32_t> offsets(&arena);
    std::pmr::vector<TaskId> members(&arena);
    groupInto(tasks, pipes,
              [this](TaskId t) {
                  return contexts_[t] / topology_.strandsPerPipe;
              },
              offsets, members);

    // Render every pipe key once; an id takes at most 10 digits plus
    // its comma.
    constexpr std::size_t kMaxIdChars =
        std::numeric_limits<TaskId>::digits10 + 2;
    std::pmr::vector<char> pipe_text(2 * pipes + tasks * kMaxIdChars,
                                     &arena);
    std::pmr::vector<std::string_view> pipe_keys(pipes, &arena);
    char *out = pipe_text.data();
    char *const pipe_text_end = out + pipe_text.size();
    for (std::size_t p = 0; p < pipes; ++p) {
        char *const begin = out;
        *out++ = '[';
        for (std::uint32_t i = offsets[p]; i < offsets[p + 1]; ++i) {
            out = std::to_chars(out, pipe_text_end, members[i]).ptr;
            *out++ = ',';
        }
        *out++ = ']';
        pipe_keys[p] = std::string_view(begin, out - begin);
    }

    std::pmr::vector<char> core_text(
        2 * cores + (out - pipe_text.data()), &arena);
    std::pmr::vector<std::string_view> core_keys(&arena);
    core_keys.reserve(cores);
    out = core_text.data();
    for (std::size_t c = 0; c < cores; ++c) {
        if (offsets[c * per_core] == offsets[(c + 1) * per_core])
            continue;   // no task on this core
        const auto first = pipe_keys.begin() + c * per_core;
        const auto last = first + per_core;
        std::sort(first, last);
        char *const begin = out;
        *out++ = '{';
        for (auto it = first; it != last; ++it)
            out = std::copy(it->begin(), it->end(), out);
        *out++ = '}';
        core_keys.emplace_back(begin, out - begin);
    }
    std::sort(core_keys.begin(), core_keys.end());

    std::string key;
    key.reserve(out - core_text.data());
    for (const std::string_view core_key : core_keys)
        key += core_key;
    return key;
}

PackedCanonicalForm::PackedCanonicalForm(const Topology &topology,
                                         std::uint32_t tasks)
    : topology_(topology), tasks_(tasks)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "packed form: task count out of range");
    // A one-pipe chip still takes a bit per task, always 0.
    bitsPerTask_ = std::max(
        1u, static_cast<unsigned>(std::bit_width(topology.pipes() - 1)));
    const std::size_t per_word = 64 / bitsPerTask_;
    words_ = (tasks + per_word - 1) / per_word;
    places_.reserve(topology.contexts());
    for (ContextId ctx = 0; ctx < topology.contexts(); ++ctx)
        places_.push_back({topology.coreOf(ctx), topology.pipeOf(ctx)});
}

void
PackedCanonicalForm::pack(const Assignment &assignment,
                          std::uint64_t *out) const
{
    SCHED_REQUIRE(assignment.topology() == topology_ &&
                  assignment.size() == tasks_,
                  "packed form: assignment of another shape");
    // label[pipe] is the canonical pipe a chip-global pipe got, and
    // next[core] the canonical pipe its core hands out next; kUnseen
    // marks both before their first task. Both live on the stack
    // unless the shape has more than 256 cores and pipes together.
    constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
    const std::size_t pipes = topology_.pipes();
    std::array<std::uint32_t, 256> narrow;
    std::vector<std::uint32_t> wide;
    std::uint32_t *label = narrow.data();
    if (pipes + topology_.cores > narrow.size()) {
        wide.resize(pipes + topology_.cores);
        label = wide.data();
    }
    std::uint32_t *const next = label + pipes;
    std::fill_n(label, pipes + topology_.cores, kUnseen);

    std::uint32_t cores_seen = 0;
    std::uint64_t word = 0;
    unsigned shift = 0;
    for (const ContextId ctx : assignment.contexts()) {
        const Place place = places_[ctx];
        std::uint32_t &canonical = label[place.pipe];
        if (canonical == kUnseen) {
            std::uint32_t &core_next = next[place.core];
            if (core_next == kUnseen)
                core_next = cores_seen++ * topology_.pipesPerCore;
            canonical = core_next++;
        }
        word |= std::uint64_t{canonical} << shift;
        shift += bitsPerTask_;
        if (shift + bitsPerTask_ > 64) {
            *out++ = word;
            word = 0;
            shift = 0;
        }
    }
    if (shift != 0)
        *out = word;
}

PackedKeyTable::PackedKeyTable(std::size_t words, std::size_t expected)
    : words_(words), stride_(2 + words)
{
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(16, 2 * expected));
    mask_ = capacity - 1;
    slots_.assign(capacity * stride_, 0);
}

std::uint64_t
PackedKeyTable::hash(const std::uint64_t *key, std::size_t words)
{
    // splitmix64's finalizer, folded over the words.
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < words; ++w) {
        h ^= key[w] + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
    }
    return h != 0 ? h : 1;   // 0 marks an empty slot
}

std::size_t
PackedKeyTable::slotOf(std::uint64_t hash, const std::uint64_t *key) const
{
    // The load stays at most one half, so an empty slot ends the probe.
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const std::uint64_t *slot = &slots_[i * stride_];
        if (slot[0] == 0 ||
            (slot[0] == hash && std::equal(key, key + words_, slot + 2)))
            return i;
    }
}

const std::uint64_t *
PackedKeyTable::find(std::uint64_t hash, const std::uint64_t *key) const
{
    const std::uint64_t *slot = &slots_[slotOf(hash, key) * stride_];
    return slot[0] == 0 ? nullptr : slot + 1;
}

std::pair<const std::uint64_t *, bool>
PackedKeyTable::tryEmplace(std::uint64_t hash, const std::uint64_t *key,
                           std::uint64_t payload)
{
    if (2 * (size_ + 1) > mask_ + 1)
        grow();
    std::uint64_t *slot = &slots_[slotOf(hash, key) * stride_];
    if (slot[0] != 0)
        return {slot + 1, false};
    slot[0] = hash;
    slot[1] = payload;
    std::copy_n(key, words_, slot + 2);
    ++size_;
    return {slot + 1, true};
}

void
PackedKeyTable::grow()
{
    const std::vector<std::uint64_t> old = std::move(slots_);
    mask_ = 2 * mask_ + 1;
    slots_.assign((mask_ + 1) * stride_, 0);
    for (std::size_t at = 0; at < old.size(); at += stride_) {
        if (old[at] != 0)
            std::copy_n(&old[at], stride_,
                        &slots_[slotOf(old[at], &old[at + 2]) * stride_]);
    }
}

ClassTable::ClassTable(const Assignment &first)
    : form(first.topology(), static_cast<std::uint32_t>(first.size())),
      table(form.words())
{
}

std::uint64_t
ClassTable::pack(const Assignment &assignment, std::uint64_t *key) const
{
    form.pack(assignment, key);
    return PackedKeyTable::hash(key, form.words());
}

std::string
Assignment::toString() const
{
    const auto by_pipe = tasksByPipe();
    std::string out;
    for (std::uint32_t c = 0; c < topology_.cores; ++c) {
        bool core_empty = true;
        for (std::uint32_t p = 0; p < topology_.pipesPerCore; ++p) {
            if (!by_pipe[c * topology_.pipesPerCore + p].empty())
                core_empty = false;
        }
        if (core_empty)
            continue;
        out += "{";
        for (std::uint32_t p = 0; p < topology_.pipesPerCore; ++p) {
            out += "[";
            const auto &tasks = by_pipe[c * topology_.pipesPerCore + p];
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                if (i)
                    out += " ";
                out += 't';
                out += std::to_string(tasks[i]);
            }
            out += "]";
        }
        out += "}";
    }
    return out;
}

} // namespace core
} // namespace statsched
