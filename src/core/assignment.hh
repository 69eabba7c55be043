/**
 * @file
 * Task assignment: the mapping from tasks to hardware contexts.
 *
 * An Assignment binds each of T tasks to a distinct hardware context
 * of a Topology — the static task-to-strand binding that Netra DPS
 * performs at compile time (Section 4.2 of the paper). Performance is
 * invariant under permutations of equivalent hardware (cores with each
 * other, pipes within a core, strands within a pipe), so assignments
 * also expose a *canonical key* identifying their equivalence class;
 * the class count is what Table 1 of the paper reports. The key comes
 * in two forms with the same partition: the canonicalKey() string,
 * which feeds only the journal's key hash, and the PackedCanonicalForm
 * words. Every layer that keeps state per class (the memo's values,
 * the resilient layer's quarantine) keys it by those words, in a
 * ClassTable of its one (topology, tasks) shape.
 */

#ifndef STATSCHED_CORE_ASSIGNMENT_HH
#define STATSCHED_CORE_ASSIGNMENT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hh"
#include "core/topology.hh"

namespace statsched
{
namespace core
{

/** Index of a task within a workload. */
using TaskId = std::uint32_t;

/**
 * An assignment of tasks to hardware contexts.
 */
class Assignment
{
  public:
    /**
     * @param topology The processor shape.
     * @param contexts contexts[t] is the hardware context of task t;
     *                 all entries must be valid and pairwise distinct.
     */
    Assignment(const Topology &topology,
               std::vector<ContextId> contexts);

    /** @return number of tasks. */
    std::size_t size() const { return contexts_.size(); }

    /** @return the topology this assignment targets. */
    const Topology &topology() const { return topology_; }

    /** @return the context of a task. */
    ContextId
    contextOf(TaskId task) const
    {
        SCHED_REQUIRE(task < contexts_.size(), "task out of range");
        return contexts_[task];
    }

    /** @return the raw task -> context vector. */
    const std::vector<ContextId> &contexts() const { return contexts_; }

    /** @return the core of a task. */
    std::uint32_t
    coreOf(TaskId task) const
    {
        return topology_.coreOf(contextOf(task));
    }

    /** @return the chip-global pipe of a task. */
    std::uint32_t
    pipeOf(TaskId task) const
    {
        return topology_.pipeOf(contextOf(task));
    }

    /** @return tasks grouped by chip-global pipe (pipes() entries). */
    std::vector<std::vector<TaskId>> tasksByPipe() const;

    /** @return tasks grouped by core (cores() entries). */
    std::vector<std::vector<TaskId>> tasksByCore() const;

    /**
     * Allocation-free grouping of tasks by chip-global pipe in CSR
     * layout: after the call, group g spans
     * flat[offsets[g], offsets[g + 1]) with tasks in ascending id
     * order — the same member order tasksByPipe() produces. The
     * buffers are resized in place, so a caller that reuses them
     * across assignments allocates only until they reach steady-state
     * capacity. This is the form the batch measurement hot path
     * consumes (sim::ContentionSolver::solveInto).
     *
     * @param offsets Receives pipes() + 1 offsets.
     * @param flat    Receives size() task ids.
     */
    void tasksByPipeInto(std::vector<std::uint32_t> &offsets,
                         std::vector<TaskId> &flat) const;

    /**
     * Canonical key of the equivalence class under hardware symmetry:
     * two assignments get equal keys iff one can be transformed into
     * the other by permuting cores, permuting pipes within cores and
     * permuting strands within pipes. Journals store a hash of these
     * bytes (journalKeyHash()); per-class state is keyed by the
     * cheaper PackedCanonicalForm, which is equal exactly when this
     * is.
     */
    std::string canonicalKey() const;

    /**
     * Paper-style rendering, e.g. "{[t0 t2][]}{[t1][]}" — one {...}
     * per occupied core, one [...] per pipe. Cores and pipes are
     * printed in canonical order; empty cores are omitted.
     */
    std::string toString() const;

    /**
     * Validates a raw context vector without constructing.
     *
     * @return true iff all contexts are in range and distinct.
     */
    static bool isValid(const Topology &topology,
                        const std::vector<ContextId> &contexts);

  private:
    Topology topology_;
    std::vector<ContextId> contexts_;
};

/**
 * The canonical class of an assignment as a few machine words, for one
 * (topology, tasks) shape. Two assignments of the shape pack to equal
 * words exactly when their canonicalKey() strings are equal.
 *
 * The form labels by first appearance, which needs no sorting: walking
 * the tasks in id order, a core gets the next canonical core number
 * when a task first lands on it, and a pipe the next pipe number
 * within its core. Each task contributes its canonical pipe
 * (core * pipesPerCore + pipe) in bit_width(pipes - 1) bits, and a
 * word holds as many whole tasks as fit: on the T2 that is 4 bits per
 * task, one word at 12 tasks and two at 24. pack() costs O(tasks),
 * reads each context's core and pipe from a table, and allocates
 * nothing below 256 cores plus pipes.
 */
class PackedCanonicalForm
{
  public:
    /**
     * @param topology The processor shape.
     * @param tasks    Tasks per assignment (at least one).
     */
    PackedCanonicalForm(const Topology &topology, std::uint32_t tasks);

    /** @return the topology the form packs. */
    const Topology &topology() const { return topology_; }

    /** @return tasks per packed assignment. */
    std::uint32_t tasks() const { return tasks_; }

    /** @return 64-bit words per packed assignment. */
    std::size_t words() const { return words_; }

    /**
     * Packs an assignment of this form's shape.
     *
     * @param assignment Same topology and task count as the form.
     * @param out        Receives words() words.
     */
    void pack(const Assignment &assignment, std::uint64_t *out) const;

  private:
    /** Where a context sits: its core and chip-global pipe. */
    struct Place
    {
        std::uint32_t core;
        std::uint32_t pipe;
    };

    Topology topology_;
    std::uint32_t tasks_;
    unsigned bitsPerTask_ = 1;
    std::size_t words_ = 0;
    /** Place of every context, indexed by ContextId. */
    std::vector<Place> places_;
};

/**
 * Open-addressing map from a packed key of a fixed word count to a
 * 64-bit payload: power-of-two capacity, linear probing, load at most
 * one half. Slots hold the key's hash (0 marks an empty slot), the
 * payload and the key words inline, so a lookup allocates nothing and
 * matches only when the hash and every key word are equal.
 */
class PackedKeyTable
{
  public:
    /**
     * @param words    Words per key.
     * @param expected Entries to size for without growing.
     */
    explicit PackedKeyTable(std::size_t words, std::size_t expected = 0);

    /** @return the nonzero hash of a key of `words` words. */
    static std::uint64_t hash(const std::uint64_t *key, std::size_t words);

    /** @return the payload stored under the key, or nullptr. */
    const std::uint64_t *find(std::uint64_t hash,
                              const std::uint64_t *key) const;

    /**
     * Inserts the key with `payload` unless it is present.
     *
     * @return the stored payload, and whether it was inserted.
     */
    std::pair<const std::uint64_t *, bool>
    tryEmplace(std::uint64_t hash, const std::uint64_t *key,
               std::uint64_t payload);

    /** @return entries stored. */
    std::size_t size() const { return size_; }

  private:
    /** @return the index of the slot holding the key, or of the
     *  empty slot where it would go. */
    std::size_t slotOf(std::uint64_t hash,
                       const std::uint64_t *key) const;

    /** Doubles the capacity, rehashing by the stored hashes. */
    void grow();

    std::size_t words_;
    /** Words per slot: hash, payload, key. */
    std::size_t stride_;
    /** Capacity - 1; the capacity is a power of two. */
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::vector<std::uint64_t> slots_;
};

/**
 * Per-class state of one (topology, tasks) shape: the shape's packed
 * form and a table keyed by its words. pack() refuses an assignment
 * of any other shape, so a layer holding one ClassTable serves one
 * shape.
 */
struct ClassTable
{
    /** Takes the shape of `first`. */
    explicit ClassTable(const Assignment &first);

    /**
     * Packs an assignment of the table's shape.
     *
     * @param key Receives form.words() words.
     * @return the key's hash.
     */
    std::uint64_t pack(const Assignment &assignment,
                       std::uint64_t *key) const;

    const PackedCanonicalForm form;
    PackedKeyTable table;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_ASSIGNMENT_HH
