/**
 * @file
 * Three-level resource contention solver.
 *
 * Given a topology, a chip configuration, the task profiles and an
 * assignment, the solver computes the steady-state instruction rate
 * of every task (instructions per cycle) under contention at the
 * three sharing levels of the UltraSPARC T2:
 *
 *  - IntraPipe: each pipeline issues one instruction per cycle,
 *    shared among its strands by max-min fair water-filling;
 *  - IntraCore: the co-runners' working sets inflate L1 miss rates
 *    (shared code/data counted once), and the LSU / FPU / crypto
 *    ports are water-filled per core;
 *  - InterCore: the chip-wide L2 occupancy inflates L2 miss rates and
 *    the off-chip access budget is water-filled chip-wide.
 *
 * Miss stalls lengthen a task's effective CPI, lowering the issue
 * demand it presents to the arbiters; the mutual dependence is
 * resolved by a damped fixed-point iteration (monotone in practice,
 * converges in a few tens of rounds).
 *
 * Batch-first layout: the solver is the innermost loop of every
 * measurement campaign (tens of thousands of iid solves per run), so
 * it is split into construction-time and solve-time work.
 * Assignment-independent quantities — per-task base CPI, port
 * fractions, bulk-table miss fractions and the chip-wide L2 pressure
 * (which covers *all* tasks, whatever the assignment) — are
 * precomputed once into struct-of-arrays tables. Everything the solve
 * itself needs lives in a caller-owned Scratch workspace, so
 * solveInto() performs no heap allocation in steady state and one
 * Scratch per thread makes batch solving embarrassingly parallel.
 * solveInto() is specified to be bit-identical to the frozen
 * pre-refactor solver (sim/reference_solver.hh) for every input.
 */

#ifndef STATSCHED_SIM_CONTENTION_HH
#define STATSCHED_SIM_CONTENTION_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/assignment.hh"
#include "sim/chip_config.hh"
#include "sim/task_profile.hh"

namespace statsched
{
namespace sim
{

/**
 * Max-min fair water-filling: distributes `capacity` among demands,
 * never giving a task more than it asks for. If total demand fits,
 * everyone gets their demand.
 *
 * @param demands  Non-negative demands.
 * @param capacity Non-negative capacity.
 * @return per-task allocation, same order as demands.
 */
std::vector<double> waterfill(const std::vector<double> &demands, // NOLINT(statsched-sim-hot-alloc): declaration of the one-shot wrapper; allocation-free callers use the Scratch-based solver
                              double capacity);

/**
 * Per-task solver outputs.
 */
struct ContentionResult
{
    /** Effective instruction rate per task (instructions/cycle). */
    std::vector<double> rates;
    /** Effective L1D miss probability per task. */
    std::vector<double> l1dMissRate;
    /** Effective L2 miss probability per task. */
    std::vector<double> l2MissRate;
    /** Fixed-point iterations executed. */
    int iterations = 0;
};

/**
 * Resolves contention for one assignment.
 */
class ContentionSolver
{
  public:
    /**
     * Reusable solve workspace. All buffers grow to their
     * steady-state capacity on the first solve against a given
     * workload/topology shape and are reused afterwards; a Scratch
     * must not be shared between concurrent solveInto() calls.
     * sim::SimulatedEngine gives each thread one, which every solver
     * on that thread uses in turn: no solve reads what another left,
     * since solveInto() resizes or overwrites each buffer before
     * reading it and refills the shared-footprint slots with +0.0.
     */
    struct Scratch
    {
        /** Cached per-task placement ids for the current assignment. */
        std::vector<std::uint32_t> pipeIdOf;
        std::vector<std::uint32_t> coreIdOf;

        /** Per-arbiter user counts (assignment constants, computed
         *  once per solve, reused across fixed-point rounds). */
        std::vector<std::uint32_t> pipeCount;
        std::vector<std::uint32_t> portUsers;

        /** CSR task groupings, built lazily on the first saturated
         *  round of a solve (fast rounds never need them). */
        std::vector<std::uint32_t> pipeOffsets;
        std::vector<core::TaskId> pipeTasks;
        std::vector<std::uint32_t> coreOffsets;
        std::vector<core::TaskId> coreTasks;

        /** Per-round arbiter state: total demand per group (feeds the
         *  saturation classification only, never the grants) and
         *  which groups took the provably-unsaturated fast path. */
        std::vector<double> pipeDemand;
        std::vector<unsigned char> pipeFast;
        std::vector<double> portDemand;
        std::vector<unsigned char> portFast;

        /** Shared-footprint dedup slots, one per (shared-structure
         *  rank, core), stored rank-major so the per-rank sweep walks
         *  contiguous rows. The value arrays hold +0.0 in every
         *  unclaimed slot — each solve re-zeroes them after its sweep
         *  (they are a few cache lines, cheaper to blank than to
         *  track) — so claims max-merge unconditionally
         *  (max(+0.0, kb) == kb for the first member) and the
         *  footprint sums read all slots unconditionally. */
        std::vector<double> dataMax;
        std::vector<double> codeMax;
        std::vector<double> dataSum;
        std::vector<double> codeSum;

        /** Per-core cache pressure of the current assignment. */
        std::vector<double> l1dMissProb;
        std::vector<double> l1iMissProb;

        /** Per-task fixed-point state. */
        std::vector<double> demand;
        std::vector<double> request;
        std::vector<double> cap;

        /** Water-filling buffers (saturated-arbiter slow path). */
        std::vector<double> wfDemand;
        std::vector<double> wfAlloc;
        std::vector<core::TaskId> wfUsers;
        std::vector<std::size_t> wfOrder;
    };

    /**
     * @param config Chip capacities and penalties.
     * @param tasks  Task profiles, indexed by TaskId.
     */
    ContentionSolver(const ChipConfig &config,
                     std::vector<TaskProfile> tasks);

    /** @return the task profiles. */
    const std::vector<TaskProfile> &tasks() const { return tasks_; }

    /**
     * Computes the steady-state rates for an assignment.
     *
     * Convenience wrapper over solveInto() with a one-shot workspace;
     * batch callers keep a Scratch + ContentionResult per thread and
     * call solveInto() directly.
     *
     * @param assignment Assignment of all tasks (size must match the
     *                   profile vector).
     */
    ContentionResult solve(const core::Assignment &assignment) const;

    /**
     * Allocation-free solve: fills `result` for `assignment` using
     * only the buffers in `scratch` (and the construction-time
     * tables). Bit-identical to solve() and to the reference solver
     * for every assignment.
     *
     * @param assignment Assignment of all tasks.
     * @param scratch    Thread-private workspace, reused across calls.
     * @param result     Receives rates/miss rates/iteration count;
     *                   its vectors are resized in place and reused.
     */
    void solveInto(const core::Assignment &assignment,
                   Scratch &scratch, ContentionResult &result) const;

  private:
    ChipConfig config_;
    std::vector<TaskProfile> tasks_;

    // --- Assignment-independent struct-of-arrays tables, built once.
    /** 1 / issueDemand. */
    std::vector<double> baseCpi_;
    /** Port fractions, gathered per shared IntraCore port. */
    std::vector<double> loadStoreFrac_;
    std::vector<double> fpFrac_;
    std::vector<double> cryptoFrac_;
    /** L1D pressure contribution: hot set + capped bulk table. */
    std::vector<double> l1dPressureKb_;
    std::vector<double> l1iFootprintKb_;
    std::vector<std::uint32_t> sharedDataId_;
    std::vector<std::uint32_t> codeId_;
    /** Dense rank of each task's shared id among the workload's
     *  distinct non-zero ids, assigned in ascending id order
     *  (0xffffffff = not shared). Ascending rank == ascending id, so
     *  a sweep over present ranks replays the reference solver's
     *  ordered-map iteration without sorting anything at solve time. */
    std::vector<std::uint32_t> dataRank_;
    std::vector<std::uint32_t> codeRank_;
    std::uint32_t dataRanks_ = 0;
    std::uint32_t codeRanks_ = 0;
    /** Indices of the IntraCore ports (LSU/FPU/crypto) used by at
     *  least one task. A port no task ever touches contributes
     *  nothing in the reference either, so the solve skips it. */
    std::uint8_t activePorts_[3] = {0, 0, 0};
    std::uint32_t activePortCount_ = 0;
    /** Bulk-table L1 miss fraction per instruction. */
    std::vector<double> tableMiss_;
    /** Off-chip accesses per instruction (tableMiss * l2MissProb). */
    std::vector<double> memFrac_;
    /** Tasks with memFrac_ > 0, ascending — the only possible users
     *  of the InterCore arbiter, for any assignment. Empty for
     *  cache-resident workloads, which skip that arbiter entirely. */
    std::vector<core::TaskId> memUsers_;
    /** Chip-wide L2 miss probability (workload constant). */
    double l2MissProb_ = 0.0;
};

} // namespace sim
} // namespace statsched

#endif // STATSCHED_SIM_CONTENTION_HH
