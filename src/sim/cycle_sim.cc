/**
 * @file
 * CycleSimEngine implementation.
 *
 * Batch-first layout: one measurement needs a full machine image —
 * per-core caches, strand state, stage queues, pipe groupings — and
 * constructing it fresh per call dominated small runs. Each thread
 * keeps one image (a thread_local, shared by every CycleSimEngine on
 * the thread) and *resets it in place* between measurements:
 * SetAssociativeCache::reset() is exactly equivalent to
 * reconstruction, strands are re-seeded from (seed, task) as before,
 * and queues/cursors are zeroed — so a reused image is bit-identical
 * to a fresh one, and any thread may run any batch item.
 */

#include "sim/cycle_sim.hh"

#include <algorithm>
#include <vector>

#include "base/check.hh"
#include "sim/cache.hh"
#include "stats/rng.hh"

namespace statsched
{
namespace sim
{

namespace
{

/** Synthetic address-space layout (byte addresses). */
constexpr std::uint64_t hotRegionBase = 0x1000000000ull;
constexpr std::uint64_t hotRegionStride = 0x100000ull;   // 1 MB/task
constexpr std::uint64_t tableRegionBase = 0x4000000000ull;
constexpr std::uint64_t tableRegionStride = 0x4000000ull; // 64 MB
constexpr std::uint64_t codeRegionBase = 0x8000000000ull;
constexpr std::uint64_t codeRegionStride = 0x100000ull;

/** Per-strand simulation state. */
struct Strand
{
    const TaskProfile *profile = nullptr;
    core::TaskId task = 0;

    std::uint64_t stallUntil = 0;     //!< busy until this cycle
    double nextIssue = 0.0;           //!< dependence-gap clock
    double instrInPacket = 0.0;       //!< retired toward the packet
    bool hasPacket = false;           //!< currently holds a packet
    std::uint64_t packetsDone = 0;    //!< after warmup

    int inputEdge = -1;               //!< edge feeding this stage
    int outputEdge = -1;              //!< edge this stage fills

    std::uint64_t hotCursor = 0;      //!< cyclic hot-set walker
    std::uint64_t codeCursor = 0;     //!< cyclic code walker
    stats::Rng rng{0};
};

/**
 * One reusable machine image. Caches are built on first use for the
 * chip at hand and reset in place afterwards; everything else is
 * reinitialised from scratch each measurement.
 */
struct Machine
{
    /** Geometry the caches were built for; 0 cores = none built. */
    std::uint32_t cores = 0;
    double l1dKb = 0.0;
    double l1iKb = 0.0;
    double l2Kb = 0.0;

    std::vector<SetAssociativeCache> l1d;
    std::vector<SetAssociativeCache> l1i;
    /** Zero or one entry; a vector only for default construction. */
    std::vector<SetAssociativeCache> l2;
    std::vector<Strand> strands;
    std::vector<std::uint32_t> queueOcc;
    std::vector<std::uint32_t> pipeOffsets;
    std::vector<core::TaskId> pipeTasks;
    std::vector<std::uint32_t> rr;
};

/** Runs one measurement on the calling thread's machine image. */
double
runMachine(const Workload &workload, const ChipConfig &config,
           const CycleSimOptions &options,
           const core::Assignment &assignment)
{
    thread_local Machine m;
    SCHED_REQUIRE(assignment.size() == workload.taskCount(),
                  "assignment/workload mismatch");
    const core::Topology &topo = assignment.topology();
    const auto &tasks = workload.tasks();
    const auto &edges = workload.edges();

    // --- Machine state.
    // T2-like cache geometry: 8 KB 4-way 16 B L1D, 16 KB 8-way 32 B
    // L1I per core, 4 MB 16-way 64 B shared L2. Built once per chip;
    // reset() restores the just-constructed state thereafter. Every
    // CycleSimEngine on the thread shares the image, so a different
    // core count or cache size rebuilds it. The image counts as
    // unbuilt until the build completes, so a cache constructor that
    // throws leaves nothing half-built behind.
    if (m.cores != topo.cores || m.l1dKb != config.l1dKb ||
        m.l1iKb != config.l1iKb || m.l2Kb != config.l2Kb) {
        m.cores = 0;
        m.l1d.clear();
        m.l1i.clear();
        m.l2.clear();
        for (std::uint32_t c = 0; c < topo.cores; ++c) {
            m.l1d.emplace_back(config.l1dKb, 4, 16);
            m.l1i.emplace_back(config.l1iKb, 8, 32);
        }
        m.l2.emplace_back(config.l2Kb, 16, 64);
        m.cores = topo.cores;
        m.l1dKb = config.l1dKb;
        m.l1iKb = config.l1iKb;
        m.l2Kb = config.l2Kb;
    } else {
        for (auto &cache : m.l1d)
            cache.reset();
        for (auto &cache : m.l1i)
            cache.reset();
        m.l2[0].reset();
    }
    std::vector<SetAssociativeCache> &l1d = m.l1d;
    std::vector<SetAssociativeCache> &l1i = m.l1i;
    SetAssociativeCache &l2 = m.l2[0];

    // --- Strand state, rebuilt from the profiles each measurement.
    m.strands.assign(tasks.size(), Strand{});
    std::vector<Strand> &strands = m.strands;
    for (core::TaskId t = 0; t < tasks.size(); ++t) {
        Strand &s = strands[t];
        s.profile = &tasks[t];
        s.task = t;
        s.rng = stats::Rng(options.seed ^
                           (0x9e37ull * (t + 1)));
        // Receive stages always hold a packet to work on.
        s.hasPacket = (tasks[t].role == StageRole::Receive);
    }
    for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
        strands[edges[e].first].outputEdge = e;
        strands[edges[e].second].inputEdge = e;
    }
    m.queueOcc.assign(edges.size(), 0);
    std::vector<std::uint32_t> &queue_occ = m.queueOcc;

    // Pipe membership (CSR layout) and round-robin cursors.
    assignment.tasksByPipeInto(m.pipeOffsets, m.pipeTasks);
    m.rr.assign(topo.pipes(), 0);
    std::vector<std::uint32_t> &rr = m.rr;

    const std::uint64_t total =
        options.warmupCycles + options.cycles;

    auto line_address = [](std::uint64_t base, std::uint64_t offset) {
        return base + offset;
    };

    for (std::uint64_t cycle = 0; cycle < total; ++cycle) {
        for (std::uint32_t pipe = 0; pipe < topo.pipes(); ++pipe) {
            const core::TaskId *members =
                m.pipeTasks.data() + m.pipeOffsets[pipe];
            const std::size_t member_count =
                m.pipeOffsets[pipe + 1] - m.pipeOffsets[pipe];
            if (member_count == 0)
                continue;

            // Round-robin pick of a ready strand.
            Strand *issued = nullptr;
            for (std::size_t probe = 0; probe < member_count;
                 ++probe) {
                const std::size_t idx =
                    (rr[pipe] + probe) % member_count;
                Strand &s = strands[members[idx]];
                if (s.stallUntil > cycle)
                    continue;

                // At a packet boundary the stage may need queue
                // transitions before issuing more work.
                if (!s.hasPacket) {
                    if (s.inputEdge >= 0) {
                        if (queue_occ[s.inputEdge] == 0)
                            continue;   // starved
                        --queue_occ[s.inputEdge];
                    }
                    s.hasPacket = true;
                }
                // Intrinsic dependence gaps of a sub-unit-IPC
                // strand: the strand is ready again only when its
                // fractional issue clock comes due, leaving the
                // slot to the other strands meanwhile (the T2
                // selects among *ready* strands).
                if (static_cast<double>(cycle) < s.nextIssue)
                    continue;
                issued = &s;
                rr[pipe] = static_cast<std::uint32_t>(
                    (idx + 1) % member_count);
                break;
            }
            if (!issued)
                continue;

            Strand &s = *issued;
            const TaskProfile &p = *s.profile;
            const std::uint32_t core = assignment.coreOf(s.task);

            // Instruction fetch: walk the code image cyclically
            // (sequential fetch locality) and probe the per-core
            // L1I for a fraction of instructions (the rest are
            // served by the fetch buffer).
            if (s.rng.uniform() < options.fetchProbeFraction) {
                const std::uint64_t span = static_cast<std::uint64_t>(
                    p.l1iFootprintKb * 1024.0);
                const std::uint64_t addr = line_address(
                    codeRegionBase + p.codeId * codeRegionStride,
                    span ? (s.codeCursor % span) : 0);
                s.codeCursor += 32;   // next fetch line
                if (!l1i[core].access(addr)) {
                    if (!l2.access(addr)) {
                        s.stallUntil = cycle +
                            static_cast<std::uint64_t>(
                                config.l2MissPenalty);
                        continue;
                    }
                    s.stallUntil = cycle +
                        static_cast<std::uint64_t>(
                            config.l1MissPenalty);
                    continue;
                }
            }

            // Data access: hot working set (cyclic) or bulk table
            // (random), through the real cache hierarchy.
            const double u = s.rng.uniform();
            if (u < p.randomAccessFraction && p.tableKb > 0.0) {
                const std::uint64_t span = static_cast<std::uint64_t>(
                    p.tableKb * 1024.0);
                const std::uint64_t region = p.sharedDataId
                    ? p.sharedDataId : 0x10000u + s.task;
                const std::uint64_t addr = line_address(
                    tableRegionBase + region * tableRegionStride,
                    s.rng.uniformInt(span));
                if (!l1d[core].access(addr)) {
                    if (!l2.access(addr)) {
                        s.stallUntil = cycle +
                            static_cast<std::uint64_t>(
                                config.l2MissPenalty);
                    } else {
                        s.stallUntil = cycle +
                            static_cast<std::uint64_t>(
                                config.l1MissPenalty);
                    }
                }
            } else if (u < p.randomAccessFraction +
                       p.loadStoreFraction) {
                const std::uint64_t span = static_cast<std::uint64_t>(
                    p.l1dFootprintKb * 1024.0);
                const std::uint64_t base = hotRegionBase +
                    (p.sharedDataId
                     ? 0x2000000000ull +
                       p.sharedDataId * hotRegionStride
                     : s.task * hotRegionStride);
                const std::uint64_t addr = line_address(
                    base, span ? (s.hotCursor % span) : 0);
                s.hotCursor += 16;   // next line of the hot set
                if (!l1d[core].access(addr)) {
                    if (!l2.access(addr)) {
                        s.stallUntil = cycle +
                            static_cast<std::uint64_t>(
                                config.l2MissPenalty);
                    } else {
                        s.stallUntil = cycle +
                            static_cast<std::uint64_t>(
                                config.l1MissPenalty);
                    }
                }
            }

            // Retire one instruction and start the next
            // dependence gap. The fractional accumulator keeps the
            // long-run rate exact; after a long block the clock
            // resets (no catch-up bursts).
            s.nextIssue = std::max(s.nextIssue + 1.0 / p.issueDemand,
                                   static_cast<double>(cycle + 1));
            s.instrInPacket += 1.0;
            if (s.instrInPacket >= p.instructionsPerPacket) {
                // Packet boundary: hand off downstream.
                if (s.outputEdge >= 0) {
                    if (queue_occ[s.outputEdge] >=
                        options.queueDepth) {
                        // Output full: stay at the boundary and
                        // retry (backpressure).
                        s.instrInPacket = p.instructionsPerPacket;
                        continue;
                    }
                    ++queue_occ[s.outputEdge];
                }
                s.instrInPacket = 0.0;
                if (cycle >= options.warmupCycles)
                    ++s.packetsDone;
                s.hasPacket =
                    (p.role == StageRole::Receive);
            }
        }
    }

    // Aggregate transmitted packets over the measured interval.
    std::uint64_t transmitted = 0;
    for (const Strand &s : strands) {
        if (s.profile->role == StageRole::Transmit)
            transmitted += s.packetsDone;
    }
    const double seconds = static_cast<double>(options.cycles) /
        (config.clockGhz * 1e9);
    return static_cast<double>(transmitted) / seconds;
}

} // anonymous namespace

CycleSimEngine::CycleSimEngine(Workload workload,
                               const ChipConfig &config,
                               const CycleSimOptions &options)
    : workload_(std::move(workload)), config_(config),
      options_(options)
{
    SCHED_REQUIRE(workload_.taskCount() > 0, "empty workload");
    SCHED_REQUIRE(options_.cycles >= 1000,
                  "simulate at least 1000 cycles");
    SCHED_REQUIRE(options_.queueDepth >= 1, "empty stage queues");
}

double
CycleSimEngine::secondsPerMeasurement() const
{
    return static_cast<double>(options_.cycles +
                               options_.warmupCycles) /
        (config_.clockGhz * 1e9);
}

double
CycleSimEngine::measure(const core::Assignment &assignment)
{
    return runMachine(workload_, config_, options_, assignment);
}

core::BatchKernel
CycleSimEngine::parallelKernel(std::size_t batchSize)
{
    (void)batchSize;   // no per-measurement state to reserve
    return [this](const core::Assignment &a, std::size_t) {
        return runMachine(workload_, config_, options_, a);
    };
}

std::string
CycleSimEngine::name() const
{
    return "cyclesim:" + workload_.name();
}

} // namespace sim
} // namespace statsched
