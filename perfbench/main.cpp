// perfbench: one benchmark workload in one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--slow-gpfs <fraction>]
//
// Every rank is a fiber of the default engine on this one OS thread, so a
// host-clock interval that rank 0 reads between two barriers is the call's
// host cost summed over all ranks.  Virtual metrics are barrier-to-barrier
// Proc::now() deltas and repeat exactly for a seed.
//
// --seed derives a fixed list of universes (SimulationConfig::seed, the
// query mix and the fault plan).  A run cycles passes through them until
// --seconds of real time have gone by, each universe at least once.  A pass
// builds the testbed, initialises the simulation, and runs a fixed number
// of generations of
//     evolve -> CheckpointSeries::dump -> [query phase] -> restore_latest
// with every output checked: the commit marker exists, the restored state
// equals the dumped one, and every query answer equals an untimed slice of
// the stored bytes.  A repeated universe must reproduce its first pass's
// virtual metrics and counts exactly (the determinism check).
//
// --trace 0 reports the end-to-end metrics: host figures are medians over
// every pass, virtual figures means over the universes.  --trace 1
// alternates untraced and traced passes of the first universe; the traced
// ones attach a detail-mode obs::Collector, must reproduce the untraced
// virtual metrics exactly, and supply the per-layer split from the blame
// engine, histograms and exported counters.  The traced run also runs the
// layer probes (Universe::make_particles, bare-runtime collectives) and
// checks that seed + 1 changes the inputs.
//
// The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "pfs/local_disk_fs.hpp"
#include "platform/machine.hpp"
#include "query/service.hpp"
#include "stage/staged_fs.hpp"

using namespace paramrio;

namespace {

/// The host clock of every host metric: this process's CPU seconds.  All
/// ranks are fibers on one thread, so it is the simulator's own cost; wall
/// time on a shared machine also counts other tenants' turns on the core.
double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Elapsed real time, for the run's --seconds budget only.
double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- hashing (restart and query checks) ---------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
};

std::uint64_t hash_particles(const amr::ParticleSet& p) {
  Fnv f;
  f.vec(p.id);
  for (const auto& a : p.pos) f.vec(a);
  for (const auto& a : p.vel) f.vec(a);
  f.vec(p.mass);
  for (const auto& a : p.attr) f.vec(a);
  return f.h;
}

/// Order-independent digest of a rank's subgrids and particles: a wrapping
/// sum of per-item hashes, so a global allreduce compares the dumped and
/// restored sets whatever rank each item landed on.
struct StateDigest {
  std::uint64_t subgrids = 0;
  std::uint64_t subgrid_sum = 0;
  std::uint64_t particles = 0;
  std::uint64_t particle_sum = 0;
};

StateDigest digest(const enzo::SimulationState& s) {
  StateDigest d;
  for (const amr::Grid& g : s.my_subgrids) {
    Fnv f;
    f.pod(g.desc.id);
    for (const auto& field : g.fields) {
      f.bytes(field.data(), field.size() * sizeof(float));
    }
    d.subgrids += 1;
    d.subgrid_sum += f.h;
  }
  const amr::ParticleSet& p = s.my_particles;
  for (std::size_t i = 0; i < p.size(); ++i) {
    Fnv f;
    f.pod(p.id[i]);
    for (const auto& a : p.pos) f.pod(a[i]);
    for (const auto& a : p.vel) f.pod(a[i]);
    f.pod(p.mass[i]);
    for (const auto& a : p.attr) f.pod(a[i]);
    d.particle_sum += f.h;
  }
  d.particles = p.size();
  return d;
}

bool same_geometry(const amr::Hierarchy& a, const amr::Hierarchy& b) {
  if (a.grid_count() != b.grid_count()) return false;
  for (std::size_t i = 0; i < a.grid_count(); ++i) {
    amr::GridDescriptor x = a.grids()[i];
    amr::GridDescriptor y = b.grids()[i];
    x.owner = y.owner = 0;  // restart reassigns subgrids round-robin
    if (!(x == y)) return false;
  }
  return true;
}

// ---- workloads ----------------------------------------------------------

enum class BackendKind { kMpiIo, kHdf5 };

struct Workload {
  std::string name;
  platform::Machine machine;
  int nprocs = 0;
  enzo::SimulationConfig config;
  BackendKind backend = BackendKind::kMpiIo;
  int generations = 0;  ///< per pass
  bool staged = false;  ///< dumps through a StagedFs burst-buffer tier
  int queries_per_rank = 0;  ///< per generation; 0 = no query phase
  /// Independent universes per run, seeded from --seed.  The refined
  /// hierarchy, and so each dump's bytes and set-up cost, differ by up to a
  /// quarter from one universe to the next; a run covers several so that
  /// one unusual universe moves its figures little.
  int universes = 1;
};

/// Universe `i` of the run: the workload with its derived seed.
Workload universe(const Workload& w, int i) {
  Rng rng(w.config.seed);
  Workload u = w;
  for (int k = 0; k <= i; ++k) u.config.seed = rng.next_u64();
  return u;
}

/// Service parameters of the striped file system's I/O nodes scaled
/// `fraction` slower (sensitivity check); applied to GPFS machines only.
void slow_gpfs(platform::Machine& m, double fraction) {
  if (fraction == 0.0 || m.fs_kind != platform::FsKind::kStriped ||
      m.striped_fs.fs_name != "gpfs") {
    return;
  }
  stor::DiskParams& d = m.striped_fs.server_disk;
  d.seek_time *= 1.0 + fraction;
  d.near_seek_time *= 1.0 + fraction;
  d.request_overhead *= 1.0 + fraction;
  d.bandwidth /= 1.0 + fraction;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double slow) {
  Workload w;
  w.name = name;
  if (name == "amr64_gpfs") {
    // The paper's AMR64 on the platform where its MPI-IO port loses
    // (Fig 7: server queues and GPFS write tokens).
    w.machine = platform::sp2_gpfs();
    w.nprocs = 16;
    w.config = enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
    w.generations = 4;
    w.universes = 4;
  } else if (name == "ranks256_pvfs") {
    // Many ranks, little data: ~64 root cells per rank and no particles,
    // so the flat O(P^2) collectives dominate host time.
    w.machine = platform::chiba_pvfs_ethernet();
    w.nprocs = 256;
    w.config.root_dims = {26, 26, 26};
    w.config.particles_per_cell = 0.0;
    w.config.n_clumps = 4;
    w.generations = 2;
    w.universes = 3;
  } else if (name == "query_staged") {
    // HDF5 dumps through a node-local staging tier with async drain, read
    // back by every rank through the query service under light faults.
    w.machine = platform::chiba_pvfs_ethernet();
    w.nprocs = 64;
    w.config.root_dims = {64, 64, 64};
    w.config.particles_per_cell = 0.25;
    w.config.n_clumps = 4;
    w.backend = BackendKind::kHdf5;
    w.generations = 2;
    w.staged = true;
    w.queries_per_rank = 100;
    w.universes = 5;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.config.seed = seed;
  slow_gpfs(w.machine, slow);
  return w;
}

std::unique_ptr<enzo::IoBackend> make_backend(const Workload& w,
                                              pfs::FileSystem& fs) {
  if (w.backend == BackendKind::kHdf5) {
    return std::make_unique<enzo::Hdf5ParallelBackend>(fs,
                                                       hdf5::FileConfig{});
  }
  return std::make_unique<enzo::MpiIoBackend>(fs, mpi::io::Hints{});
}

constexpr const char* kSeries = "bench";

/// Light read-path faults for the query phases: transient EIO and short
/// reads on the series files, never more than two in a row per operation.
fault::FaultPlan query_fault_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed * 0x9e3779b97f4a7c15ULL + 17;
  fault::FaultSpec eio;
  eio.kind = fault::FaultKind::kTransientError;
  eio.path_substr = kSeries;
  eio.match_writes = false;
  eio.probability = 0.02;
  eio.max_consecutive = 2;
  plan.specs.push_back(eio);
  fault::FaultSpec shorty = eio;
  shorty.kind = fault::FaultKind::kShortRead;
  shorty.short_fraction = 0.5;
  plan.specs.push_back(shorty);
  return plan;
}

// ---- queries ------------------------------------------------------------

enum class QueryKind : std::uint8_t { kSlice, kPrivate, kParticles, kMeta };

struct QueryRecord {
  QueryKind kind = QueryKind::kMeta;
  std::uint64_t gen = 0;
  query::SubVolumeRequest req;
  std::uint64_t id_lo = 0;
  std::uint64_t id_hi = 0;
  std::uint64_t answer = 0;  ///< hash of the returned bytes
  std::uint64_t count = 0;   ///< elements returned
  double latency = 0.0;      ///< virtual seconds
};

struct GenMeta {
  std::uint64_t cycle = 0;
  std::uint64_t n_particles = 0;
};

/// Untimed oracle over the stored dump bytes, with whole fields and
/// particle arrays cached per generation.
class Oracle {
 public:
  explicit Oracle(const stor::ObjectStore& store) : store_(store) {}

  bool check(const QueryRecord& q, const query::GenerationIndex& ix,
             const GenMeta& meta) {
    switch (q.kind) {
      case QueryKind::kSlice:
      case QueryKind::kPrivate:
        return check_extract(q, ix);
      case QueryKind::kParticles:
        return check_particles(q, ix);
      case QueryKind::kMeta:
        return q.answer == meta.cycle && q.count == meta.n_particles;
    }
    return false;
  }

 private:
  bool check_extract(const QueryRecord& q, const query::GenerationIndex& ix) {
    const query::FieldExtent& e = ix.field(q.req.grid_id, q.req.field);
    auto key = std::make_tuple(q.gen, q.req.grid_id, q.req.field);
    auto it = fields_.find(key);
    if (it == fields_.end()) {
      std::vector<std::byte> raw(e.bytes);
      store_.read_at(e.path, e.offset, raw);
      std::vector<float> cells(e.bytes / sizeof(float));
      std::memcpy(cells.data(), raw.data(), cells.size() * sizeof(float));
      it = fields_.emplace(key, std::move(cells)).first;
    }
    const std::vector<float>& cells = it->second;
    std::vector<float> out;
    out.reserve(q.req.count[0] * q.req.count[1] * q.req.count[2]);
    for (std::uint64_t z = 0; z < q.req.count[0]; ++z) {
      for (std::uint64_t y = 0; y < q.req.count[1]; ++y) {
        const std::uint64_t row =
            ((q.req.start[0] + z) * e.dims[1] + q.req.start[1] + y) *
                e.dims[2] +
            q.req.start[2];
        out.insert(out.end(), cells.begin() + static_cast<long>(row),
                   cells.begin() + static_cast<long>(row + q.req.count[2]));
      }
    }
    Fnv f;
    f.vec(out);
    return f.h == q.answer && out.size() == q.count;
  }

  bool check_particles(const QueryRecord& q,
                       const query::GenerationIndex& ix) {
    const std::uint64_t n = ix.meta.n_particles;
    auto& ids = ids_[q.gen];
    if (ids.size() != n) {
      std::vector<std::byte> raw(n * sizeof(std::int64_t));
      store_.read_at(ix.particles[0].path, ix.particles[0].offset, raw);
      ids.resize(n);
      std::memcpy(ids.data(), raw.data(), raw.size());
    }
    const auto first = std::lower_bound(ids.begin(), ids.end(),
                                        static_cast<std::int64_t>(q.id_lo)) -
                       ids.begin();
    const auto last = std::upper_bound(ids.begin(), ids.end(),
                                       static_cast<std::int64_t>(q.id_hi)) -
                      ids.begin();
    const std::size_t count = static_cast<std::size_t>(last - first);
    amr::ParticleSet set;
    set.resize(count);
    if (count > 0) {
      for (std::size_t a = 0; a < ix.particles.size(); ++a) {
        const query::ParticleExtent& pe = ix.particles[a];
        std::vector<std::byte> buf(count * pe.elem_size);
        store_.read_at(
            pe.path,
            pe.offset + static_cast<std::uint64_t>(first) * pe.elem_size, buf);
        enzo::particle_array_from_bytes(set, a, count, buf.data());
      }
    }
    return hash_particles(set) == q.answer && count == q.count;
  }

  const stor::ObjectStore& store_;
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::string>,
           std::vector<float>>
      fields_;
  std::map<std::uint64_t, std::vector<std::int64_t>> ids_;
};

/// The seeded, skewed query mix of one rank for one generation: hot
/// density z-slices near the centre (skewed 1/(k+1) over 8 slices, mostly
/// the newest generation), a private sub-volume of the rank's own octant,
/// particle ID windows and metadata lookups.
std::vector<QueryRecord> plan_queries(const Workload& w, std::uint64_t gen,
                                      int rank,
                                      const query::GenerationIndex& ix) {
  Rng rng(w.config.seed * 0x100000001b3ULL + gen * 7919ULL +
          static_cast<std::uint64_t>(rank) * 104729ULL + 1);
  const std::uint64_t n = w.config.root_dims[0];
  const std::uint64_t b = n / 4;
  const std::uint64_t r = static_cast<std::uint64_t>(rank);
  const auto& names = amr::baryon_field_names();
  static const double kSliceWeights[8] = {1.0,       1.0 / 2, 1.0 / 3,
                                          1.0 / 4,   1.0 / 5, 1.0 / 6,
                                          1.0 / 7,   1.0 / 8};
  double weight_sum = 0.0;
  for (double x : kSliceWeights) weight_sum += x;
  auto pick_gen = [&](double p_prev) {
    return gen > 0 && rng.next_double() < p_prev ? gen - 1 : gen;
  };

  std::vector<QueryRecord> out;
  for (int i = 0; i < w.queries_per_rank; ++i) {
    QueryRecord q;
    const double u = rng.next_double();
    if (u < 0.40) {
      q.kind = QueryKind::kSlice;
      q.gen = pick_gen(0.25);
      double x = rng.next_double() * weight_sum;
      std::uint64_t k = 0;
      while (k < 7 && x >= kSliceWeights[k]) x -= kSliceWeights[k++];
      q.req = {0, names[0], {n / 2 + k - 4, 0, 0}, {1, n, n}};
    } else if (u < 0.65) {
      q.kind = QueryKind::kPrivate;
      q.gen = gen;
      q.req = {0,
               names[rng.next_below(names.size())],
               {((r / 16) % 4) * b, ((r / 4) % 4) * b, (r % 4) * b},
               {b, b, b}};
    } else if (u < 0.85) {
      q.kind = QueryKind::kParticles;
      q.gen = pick_gen(0.5);
      const std::uint64_t span = ix.id_max - ix.id_min;
      const std::uint64_t width = std::max<std::uint64_t>(1, span / 256);
      q.id_lo = ix.id_min + rng.next_below(span + 1);
      q.id_hi = q.id_lo + width - 1;
    } else {
      q.kind = QueryKind::kMeta;
      q.gen = pick_gen(0.5);
    }
    out.push_back(q);
  }
  return out;
}

void run_query(query::Service& svc, QueryRecord& q) {
  switch (q.kind) {
    case QueryKind::kSlice:
    case QueryKind::kPrivate: {
      std::vector<float> v = svc.extract(q.gen, q.req);
      Fnv f;
      f.vec(v);
      q.answer = f.h;
      q.count = v.size();
      break;
    }
    case QueryKind::kParticles: {
      amr::ParticleSet p = svc.particles(q.gen, q.id_lo, q.id_hi);
      q.answer = hash_particles(p);
      q.count = p.size();
      break;
    }
    case QueryKind::kMeta: {
      const enzo::DumpMeta& m = svc.metadata(q.gen);
      q.answer = m.cycle;
      q.count = m.n_particles;
      break;
    }
  }
}

// ---- one pass -----------------------------------------------------------

/// ProcStats deltas of one window kind, summed over ranks.
struct StatDelta {
  std::uint64_t messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t io_requests = 0;
  std::uint64_t io_read = 0;
  std::uint64_t io_written = 0;

  void add(const sim::ProcStats& a, const sim::ProcStats& b) {
    messages += b.messages_sent - a.messages_sent;
    bytes_sent += b.bytes_sent - a.bytes_sent;
    io_requests += b.io_requests - a.io_requests;
    io_read += b.io_bytes_read - a.io_bytes_read;
    io_written += b.io_bytes_written - a.io_bytes_written;
  }
  std::vector<std::uint64_t> values() const {
    return {messages, bytes_sent, io_requests, io_read, io_written};
  }
  static StatDelta from(const std::vector<std::uint64_t>& v, std::size_t i) {
    return {v[i], v[i + 1], v[i + 2], v[i + 3], v[i + 4]};
  }
};

enum Window { kDump = 0, kQuery = 1, kDrain = 2, kRestart = 3, kWindows = 4 };

struct GenResult {
  double evolve_h = 0.0;  ///< 0 for the first generation (part of setup)
  double dump_h = 0.0;
  double dump_v = 0.0;
  double restart_h = 0.0;
  double restart_v = 0.0;
  double index_h = 0.0;
  double query_h = 0.0;
  double query_v = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t payload = 0;  ///< application bytes in the dump
};

struct PassResult {
  double testbed_h = 0.0;
  double init_h = 0.0;
  double first_evolve_h = 0.0;
  double wall_h = 0.0;
  std::uint64_t particles = 0;
  std::uint64_t input_hash = 0;  ///< rank 0's initial fields and particles
  std::vector<GenResult> gens;
  std::vector<double> query_latency;  ///< virtual seconds, every query
  std::uint64_t query_payload = 0;    ///< bytes the service returned
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  StatDelta stats[kWindows];
  obs::MetricsRegistry counters;  ///< global counter deltas, all windows
  std::vector<std::string> roots;  ///< root span names, in order

  double setup_h() const { return testbed_h + init_h + first_evolve_h; }

  /// Every virtual metric and count (no host time), for the determinism
  /// and tracing-neutrality checks.
  std::string fingerprint() const {
    std::ostringstream os;
    os.precision(17);
    os << particles << ' ' << input_hash << ' ' << query_payload << ' '
       << attempted << ' ' << failed;
    for (const GenResult& g : gens) {
      os << " | " << g.dump_v << ' ' << g.restart_v << ' ' << g.query_v
         << ' ' << g.queries << ' ' << g.payload;
    }
    for (double l : query_latency) os << ' ' << l;
    for (const StatDelta& s : stats) {
      for (std::uint64_t v : s.values()) os << ' ' << v;
    }
    os << '\n' << counters.format();
    return os.str();
  }
};

/// Exported counters of the pass's shared layer objects.
obs::MetricsRegistry snapshot(platform::Testbed& tb, pfs::FileSystem& fs,
                              const query::Service* svc,
                              const fault::Injector* inj) {
  obs::MetricsRegistry reg;
  tb.runtime().network().export_counters(reg);
  tb.fs().export_counters(reg);
  reg.set("retries", "dest", tb.fs().fs_retries());
  if (&fs != &tb.fs()) {
    fs.export_counters(reg);
    reg.set("retries", "facade", fs.fs_retries());
  }
  if (svc != nullptr) svc->export_counters(reg);
  if (inj != nullptr) {
    reg.set("fault", "injected", inj->counters().injected_total());
  }
  return reg;
}

/// `into` += `b` - `a`, counter by counter.
void accumulate(obs::MetricsRegistry& into, const obs::MetricsRegistry& a,
                const obs::MetricsRegistry& b) {
  for (const auto& [scope, s] : b.scopes()) {
    for (const auto& [name, v] : s.counters) {
      into.add(scope, name, v - a.get(scope, name));
    }
  }
}

/// One pass of `w`.  With `collector`, it is attached (detail mode) for the
/// pass and every measured window runs under a root span.
PassResult run_pass(const Workload& w, obs::Collector* collector) {
  PassResult res;
  const double pass_t0 = host_now();
  platform::Testbed tb(w.machine, w.nprocs, 0, sim::SchedBackend::kFibers);
  std::unique_ptr<pfs::LocalDiskFs> staging;
  std::unique_ptr<stage::StagedFs> staged;
  pfs::FileSystem* fs = &tb.fs();
  if (w.staged) {
    staging = std::make_unique<pfs::LocalDiskFs>(pfs::LocalDiskFsParams{},
                                                 w.nprocs);
    staged = std::make_unique<stage::StagedFs>(stage::StagedFsParams{},
                                               *staging, tb.fs());
    fs = staged.get();
  }
  std::unique_ptr<fault::Injector> inj;
  std::unique_ptr<query::Service> svc;
  if (w.queries_per_rank > 0) {
    inj = std::make_unique<fault::Injector>(query_fault_plan(w.config.seed));
    inj->set_enabled(false);
    fs->attach_fault_hook(inj.get());
    query::Service::Params qp;
    qp.hints.ds_buffer_size = 64 * KiB;  // one PVFS stripe per sieve block
    qp.hints.retry.max_retries = 8;
    qp.cache_capacity = 4 * MiB;  // smaller than one generation
    svc = std::make_unique<query::Service>(*fs, kSeries, qp);
  }
  if (collector != nullptr) {
    collector->set_detail(true);
    obs::attach(collector);
  }
  res.testbed_h = host_now() - pass_t0;

  std::vector<std::vector<QueryRecord>> records(
      static_cast<std::size_t>(w.nprocs));
  std::map<std::uint64_t, GenMeta> gen_meta;
  auto fail = [&res](const std::string& what) {
    res.failed += 1;
    if (res.errors.size() < 20) res.errors.push_back(what);
  };

  try {
    tb.runtime().run([&](mpi::Comm& c) {
      const bool root = c.rank() == 0;
      auto backend = make_backend(w, *fs);
      enzo::CheckpointSeries series(*backend, *fs, kSeries);
      if (staged) series.set_staging(*staged, stage::DrainPolicy::kAsync);
      // A restart is a new job on other nodes: it reads the parallel file
      // system, where the drain has put every committed generation.
      auto dest_backend = make_backend(w, tb.fs());
      enzo::CheckpointSeries restart_series(*dest_backend, tb.fs(), kSeries);

      // Host time of `body` between two barriers (read by rank 0).
      auto host_timed = [&](const std::function<void()>& body) {
        c.barrier();
        const double t0 = host_now();
        body();
        c.barrier();
        return host_now() - t0;
      };
      StatDelta mine[kWindows];
      // A measured window: host and virtual time between barriers, the
      // rank's ProcStats delta and (rank 0) the shared counters' deltas.
      auto window = [&](Window kind, const std::string& name,
                        const std::function<void()>& body) {
        c.barrier();
        const sim::ProcStats before = c.proc().stats();
        obs::MetricsRegistry snap;
        if (root) snap = snapshot(tb, *fs, svc.get(), inj.get());
        const double h0 = host_now();
        const double v0 = c.proc().now();
        {
          obs::Span span(name.c_str(), sim::TimeCategory::kIo);
          body();
          c.barrier();
        }
        const double h1 = host_now();
        const double v1 = c.proc().now();
        mine[kind].add(before, c.proc().stats());
        if (root) {
          accumulate(res.counters, snap,
                     snapshot(tb, *fs, svc.get(), inj.get()));
          res.roots.push_back(name);
        }
        return std::make_pair(h1 - h0, v1 - v0);
      };

      enzo::EnzoSimulation sim(c, w.config);
      const double init_h = host_timed([&] { sim.initialize_from_universe(); });
      const double evolve_h = host_timed([&] { sim.evolve_cycle(); });
      const std::uint64_t n_particles =
          c.allreduce_sum(sim.state().my_particles.size());
      if (root) {
        res.init_h = init_h;
        res.first_evolve_h = evolve_h;
        res.particles = n_particles;
        Fnv f;
        for (const auto& field : sim.state().my_fields) {
          f.bytes(field.data(), field.size() * sizeof(float));
        }
        f.pod(hash_particles(sim.state().my_particles));
        res.input_hash = f.h;
      }

      for (int gi = 0; gi < w.generations; ++gi) {
        const std::uint64_t g = static_cast<std::uint64_t>(gi);
        const std::string tag = ".g" + std::to_string(g);
        GenResult gr;
        if (gi > 0) gr.evolve_h = host_timed([&] { sim.evolve_cycle(); });
        const std::uint64_t n_now =
            c.allreduce_sum(sim.state().my_particles.size());

        // ---- dump ------------------------------------------------------
        std::tie(gr.dump_h, gr.dump_v) = window(
            kDump, "dump" + tag, [&] { series.dump(c, sim.state(), g); });
        if (root) {
          res.attempted += 1;
          if (!series.committed(g)) fail("generation" + tag + " uncommitted");
          gen_meta[g] = {sim.state().cycle, n_now};
          gr.payload = enzo::particle_payload_bytes(n_now);
          for (const auto& d : sim.state().hierarchy.grids()) {
            gr.payload += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
                          d.cell_count() * sizeof(float);
          }
        }

        // ---- query phase -----------------------------------------------
        if (svc) {
          if (root) fs->drop_caches();  // readers start cold
          gr.index_h = host_timed([&] { svc->open_generation(g); });
          auto& queries = records[static_cast<std::size_t>(c.rank())];
          queries = plan_queries(w, g, c.rank(), svc->open_generation(g));
          c.barrier();
          if (root) inj->set_enabled(true);
          std::tie(gr.query_h, gr.query_v) =
              window(kQuery, "query" + tag, [&] {
                for (QueryRecord& q : queries) {
                  const double t = c.proc().now();
                  run_query(*svc, q);
                  q.latency = c.proc().now() - t;
                }
              });
          if (root) {
            inj->set_enabled(false);
            Oracle oracle(fs->store());
            for (const auto& rank_queries : records) {
              for (const QueryRecord& q : rank_queries) {
                res.attempted += 1;
                gr.queries += 1;
                res.query_latency.push_back(q.latency);
                if (!oracle.check(q, svc->open_generation(q.gen),
                                  gen_meta.at(q.gen))) {
                  fail("query answer differs from the stored bytes (gen " +
                       std::to_string(q.gen) + ", kind " +
                       std::to_string(static_cast<int>(q.kind)) + ")");
                }
              }
            }
          }
        }

        // ---- drain -----------------------------------------------------
        // The generation's async drain must land before the restart reads
        // the destination (unmeasured end to end; its blame is the
        // stage.drain wait).
        if (staged) {
          window(kDrain, "drain" + tag, [&] { staged->drain_settle(); });
        }

        // ---- restart ---------------------------------------------------
        if (root) tb.fs().drop_caches();  // a new job: cold data
        c.barrier();
        enzo::EnzoSimulation fresh(c, w.config);
        std::uint64_t restored = 0;
        std::tie(gr.restart_h, gr.restart_v) =
            window(kRestart, "restart" + tag, [&] {
              restored = restart_series.restore_latest(c, fresh.state(), g);
            });

        const enzo::SimulationState& a = sim.state();
        const enzo::SimulationState& b = fresh.state();
        const bool local_ok =
            restored == g && a.cycle == b.cycle && a.time == b.time &&
            a.my_block.start == b.my_block.start &&
            a.my_block.count == b.my_block.count &&
            a.my_fields == b.my_fields &&
            same_geometry(a.hierarchy, b.hierarchy);
        const StateDigest da = digest(a);
        const StateDigest db = digest(b);
        const std::vector<std::uint64_t> sums = c.allreduce_sum(
            std::vector<std::uint64_t>{local_ok ? 0u : 1u, da.subgrids,
                                       da.subgrid_sum, da.particles,
                                       da.particle_sum, db.subgrids,
                                       db.subgrid_sum, db.particles,
                                       db.particle_sum});
        if (root) {
          res.attempted += 1;
          if (sums[0] != 0 || sums[1] != sums[5] || sums[2] != sums[6] ||
              sums[3] != sums[7] || sums[4] != sums[8]) {
            fail("restart of generation" + tag +
                 " differs from the dumped state");
          }
          res.gens.push_back(gr);
        }
      }

      std::vector<std::uint64_t> local;
      for (const StatDelta& d : mine) {
        for (std::uint64_t v : d.values()) local.push_back(v);
      }
      const std::vector<std::uint64_t> total = c.allreduce_sum(local);
      if (root) {
        for (std::size_t k = 0; k < kWindows; ++k) {
          res.stats[k] = StatDelta::from(total, 5 * k);
        }
      }
    });
  } catch (const std::exception& e) {
    fail(std::string("exception: ") + e.what());
  }
  if (collector != nullptr) obs::detach();
  if (svc) res.query_payload = svc->payload_bytes();
  res.wall_h = host_now() - pass_t0;
  return res;
}

// ---- per-layer split of a traced pass -----------------------------------

using Metrics = std::map<std::string, double>;

double blame_of(const obs::BlameReport& r, obs::BlameCategory cat) {
  return r.nranks > 0 ? r.blame[static_cast<std::size_t>(cat)] / r.nranks
                      : 0.0;
}

/// Virtual per-layer numbers of a traced pass: blame is the mean rank's
/// seconds across one generation's dump, query phase and restart; span and
/// file counters are per generation.
Metrics layer_metrics(const Workload& w, const PassResult& p,
                      const obs::Collector& col) {
  Metrics m;
  const double gens = static_cast<double>(std::max<std::size_t>(1, p.gens.size()));
  using BC = obs::BlameCategory;
  const std::pair<const char*, BC> blame_metrics[] = {
      {"mpi.comm_virtual_s", BC::kComm},
      {"mpi.recv_wait_virtual_s", BC::kRecvWait},
      {"mpi.io.settle_wait_virtual_s", BC::kSettleWait},
      {"pfs.io_virtual_s", BC::kIo},
      {"pfs.token_wait_virtual_s", BC::kTokenWait},
      {"stor.queue_wait_virtual_s", BC::kServerQueue},
      {"stage.drain_wait_virtual_s", BC::kStageDrain},
      {"fault.backoff_virtual_s", BC::kRetryBackoff},
  };
  // build_blame scans every span once per rank, so only the last
  // generation's windows are split (a full dump, query phase, drain and
  // restart; the many-rank traced pass records millions of spans).
  const std::string last = ".g" + std::to_string(p.gens.size() - 1);
  for (const std::string& root : p.roots) {
    if (root.size() < last.size() ||
        root.compare(root.size() - last.size(), last.size(), last) != 0) {
      continue;
    }
    const obs::BlameReport r = obs::build_blame(col, root);
    for (const auto& [name, cat] : blame_metrics) {
      m[name] += blame_of(r, cat);
    }
    for (const obs::PhaseBlame& ph : r.phases) {
      const double mean = ph.time / std::max(1, r.nranks);
      if (ph.name == "hdf5_dump.open" || ph.name == "hdf5_dump.meta" ||
          ph.name == "hdf5_dump.close") {
        m["hdf5.overhead_virtual_s"] += mean;
      } else if (ph.name == "query.io") {
        m["query.io_virtual_s"] += mean;
      }
    }
  }

  // Two-phase exchange: the synchronous two_phase.{pattern_exchange,comm}
  // spans (siblings, never nested in one another).
  double exchange = 0.0;
  for (const obs::SpanRecord& s : col.spans()) {
    if (!s.async &&
        (s.name == "two_phase.comm" || s.name == "two_phase.pattern_exchange")) {
      exchange += s.duration();
    }
  }
  m["mpi.io.exchange_virtual_s"] = exchange / w.nprocs / gens;
  std::uint64_t windows = 0;
  for (const auto& [scope, s] : col.registry().scopes()) {
    if (scope.rfind("file:", 0) == 0) {
      windows += col.registry().get(scope, "two_phase_windows");
    }
  }
  m["mpi.io.cb_windows"] = static_cast<double>(windows) / gens;

  auto hist_p99 = [&](const char* name) {
    auto it = col.histograms().find(name);
    return it == col.histograms().end() ? 0.0 : it->second.percentile(99.0);
  };
  m["net.message_p99_us"] = hist_p99("net.message") * 1e6;
  m["pfs.read_p99_ms"] = hist_p99("pfs.read") * 1e3;
  m["pfs.write_p99_ms"] = hist_p99("pfs.write") * 1e3;
  return m;
}

/// Count-based per-layer numbers of any pass.
Metrics count_metrics(const Workload& w, const PassResult& p) {
  Metrics m;
  const double gens = static_cast<double>(std::max<std::size_t>(1, p.gens.size()));
  const obs::MetricsRegistry& c = p.counters;
  auto get = [&](const std::string& scope, const char* name) {
    return static_cast<double>(c.get(scope, name));
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::string dest = "fs:" + w.machine.striped_fs.fs_name;
  double payload = 0.0;
  for (const GenResult& g : p.gens) payload += static_cast<double>(g.payload);
  const StatDelta& dump = p.stats[kDump];
  const StatDelta& reads_q = p.stats[kQuery];
  const StatDelta& reads_r = p.stats[kRestart];

  m["amr.particles"] = static_cast<double>(p.particles);
  m["enzo.write_amplification"] = ratio(static_cast<double>(dump.io_written), payload);
  m["enzo.read_amplification"] = ratio(static_cast<double>(reads_r.io_read), payload);
  m["mpi.messages_per_dump"] = static_cast<double>(dump.messages) / gens;
  m["mpi.bytes_per_dump"] = static_cast<double>(dump.bytes_sent) / gens;
  m["net.messages"] = get("net", "messages") / gens;
  m["net.wire_bytes"] = get("net", "wire_bytes") / gens;
  double requests = 0.0, read = 0.0;
  for (const StatDelta& s : p.stats) {
    requests += static_cast<double>(s.io_requests);
    read += static_cast<double>(s.io_read);
  }
  m["pfs.requests"] = requests / gens;
  m["pfs.bytes_written"] = static_cast<double>(dump.io_written) / gens;
  m["pfs.bytes_read"] =
      static_cast<double>(reads_q.io_read + reads_r.io_read) / gens;
  m["pfs.write_token_transfers"] = get(dest, "write_token_transfers") / gens;
  double cache_hit_bytes = 0.0;
  for (const auto& [scope, s] : c.scopes()) {
    if (scope.rfind("fs:", 0) == 0) cache_hit_bytes += get(scope, "cache_hit_bytes");
  }
  m["pfs.cache_hit_rate"] = ratio(cache_hit_bytes, read);
  m["stor.server_requests"] = get(dest, "server_requests") / gens;
  m["stor.background_bytes"] = get(dest, "background_bytes") / gens;

  const double extracts = get("query", "extracts");
  const double hits = get("query", "cache_hits");
  m["query.cache_hit_rate"] = ratio(hits, hits + get("query", "cache_misses"));
  m["query.read_amplification"] =
      ratio(get("query", "fetched_bytes"), get("query", "payload_bytes"));
  m["query.demand_fetches"] = get("query", "demand_fetches") / gens;
  m["query.shared_fetch_waits"] = get("query", "shared_fetch_waits") / gens;
  m["query.cache_evictions"] = get("query", "cache_evictions") / gens;
  m["query.runs_per_extract"] = ratio(get("query", "planned_runs"), extracts);

  m["stage.staged_bytes"] = get("fs:staged", "staged_bytes") / gens;
  m["stage.drained_bytes"] = get("fs:staged", "drained_bytes") / gens;
  m["stage.segments_created"] = get("fs:staged", "segments_created") / gens;

  m["fault.injected"] = get("fault", "injected") / gens;
  m["fault.retries"] =
      (get("query", "io_retries") + get("retries", "dest") +
       get("retries", "facade") + get("fs:staged", "stage_retries") +
       get("fs:staged", "drain_retries")) /
      gens;
  return m;
}

// ---- probes -------------------------------------------------------------

/// Universe::make_particles on the workload's universe: particles per host
/// second (0 when the workload has none).
double probe_make_particles(const Workload& w) {
  const std::uint64_t total = w.config.total_particles();
  if (total == 0) return 0.0;
  const std::uint64_t count = std::max<std::uint64_t>(
      total / static_cast<std::uint64_t>(w.nprocs), 8192);
  amr::Universe u(w.config.seed, w.config.n_clumps);
  amr::GridDescriptor region;
  region.dims = w.config.root_dims;
  const double t0 = host_now();
  const amr::ParticleSet p = u.make_particles(count, 0, region, 0.0,
                                              Rng(w.config.seed));
  const double dt = host_now() - t0;
  return dt > 0.0 ? static_cast<double>(p.size()) / dt : 0.0;
}

/// Host cost per call of barrier, allgatherv and alltoallv at the
/// workload's rank count in a bare runtime on its fabric.
Metrics probe_collectives(const Workload& w) {
  mpi::RuntimeParams rp;
  rp.net = w.machine.net;
  rp.cpu = w.machine.cpu;
  rp.nprocs = w.nprocs;
  rp.extra_fabric_nodes = w.machine.extra_fabric_nodes();
  rp.backend = sim::SchedBackend::kFibers;
  mpi::Runtime rt(rp);
  const int reps = std::max(4, 2048 / w.nprocs);
  Metrics m;
  rt.run([&](mpi::Comm& c) {
    const std::vector<std::byte> gather_piece(64, std::byte{1});
    const std::vector<mpi::Bytes> to_all(static_cast<std::size_t>(c.size()),
                                         mpi::Bytes(16, std::byte{2}));
    auto per_call = [&](const std::function<void()>& op) {
      c.barrier();
      const double t0 = host_now();
      for (int i = 0; i < reps; ++i) op();
      c.barrier();
      return (host_now() - t0) / reps;
    };
    const double barrier = per_call([&] { c.barrier(); });
    const double gather = per_call([&] { (void)c.allgatherv(gather_piece); });
    const double all = per_call([&] { (void)c.alltoallv(to_all); });
    if (c.rank() == 0) {
      m["mpi.barrier_host_us"] = barrier * 1e6;
      m["mpi.allgatherv_host_ms"] = gather * 1e3;
      m["mpi.alltoallv_host_ms"] = all * 1e3;
    }
  });
  return m;
}

// ---- output -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},    {"dump_virtual_s", "s"},
    {"restart_virtual_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"amr.init_host_s", "s"},
    {"amr.particles", "count"},
    {"amr.make_particles_per_s", "1/s"},
    {"enzo.evolve_host_s", "s"},
    {"enzo.dump_host_s", "s"},
    {"enzo.restart_host_s", "s"},
    {"enzo.write_amplification", "ratio"},
    {"enzo.read_amplification", "ratio"},
    {"mpi.messages_per_dump", "count"},
    {"mpi.bytes_per_dump", "bytes"},
    {"mpi.comm_virtual_s", "s"},
    {"mpi.recv_wait_virtual_s", "s"},
    {"mpi.barrier_host_us", "us"},
    {"mpi.allgatherv_host_ms", "ms"},
    {"mpi.alltoallv_host_ms", "ms"},
    {"mpi.io.exchange_virtual_s", "s"},
    {"mpi.io.cb_windows", "count"},
    {"mpi.io.settle_wait_virtual_s", "s"},
    {"net.messages", "count"},
    {"net.wire_bytes", "bytes"},
    {"net.message_p99_us", "us"},
    {"pfs.requests", "count"},
    {"pfs.bytes_written", "bytes"},
    {"pfs.bytes_read", "bytes"},
    {"pfs.io_virtual_s", "s"},
    {"pfs.token_wait_virtual_s", "s"},
    {"pfs.write_token_transfers", "count"},
    {"pfs.cache_hit_rate", "ratio"},
    {"pfs.read_p99_ms", "ms"},
    {"pfs.write_p99_ms", "ms"},
    {"stor.queue_wait_virtual_s", "s"},
    {"stor.server_requests", "count"},
    {"stor.background_bytes", "bytes"},
    {"hdf5.overhead_virtual_s", "s"},
    {"query.host_us", "us"},
    {"query.p50_virtual_ms", "ms"},
    {"query.p99_virtual_ms", "ms"},
    {"query.virtual_MBps", "MB/s"},
    {"query.cache_hit_rate", "ratio"},
    {"query.read_amplification", "ratio"},
    {"query.demand_fetches", "count"},
    {"query.shared_fetch_waits", "count"},
    {"query.cache_evictions", "count"},
    {"query.runs_per_extract", "ratio"},
    {"query.index_host_s", "s"},
    {"query.io_virtual_s", "s"},
    {"stage.staged_bytes", "bytes"},
    {"stage.drained_bytes", "bytes"},
    {"stage.segments_created", "count"},
    {"stage.drain_wait_virtual_s", "s"},
    {"fault.injected", "count"},
    {"fault.retries", "count"},
    {"fault.backoff_virtual_s", "s"},
    {"obs.overhead_s", "s"},
    {"error_rate", "ratio"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double slow_gpfs = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--slow-gpfs") {
      a.slow_gpfs = std::stod(val);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload(args.workload, args.seed, args.slow_gpfs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const double t_start = wall_now();
  std::vector<PassResult> plain;   // untraced passes
  std::vector<PassResult> traced;  // traced passes (trace mode)
  std::vector<Metrics> traced_layers;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto note = [&](const PassResult& p, const char* label) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) errors.push_back(std::string(label) + ": " + e);
    std::fprintf(stderr,
                 "pass %-8s setup %.3fs wall %.3fs payload %.1fMB dump %.4fv "
                 "restart %.4fv failed %llu\n",
                 label, p.setup_h(), p.wall_h,
                 p.gens.empty() ? 0.0 : p.gens[0].payload / 1e6,
                 p.gens.empty() ? 0.0 : p.gens[0].dump_v,
                 p.gens.empty() ? 0.0 : p.gens[0].restart_v,
                 static_cast<unsigned long long>(p.failed));
  };
  // A repeated universe must reproduce its first pass exactly.
  std::map<int, std::string> reference;
  auto check_same = [&](int u, const PassResult& p, const char* what) {
    const std::string fp = p.fingerprint();
    auto [it, first] = reference.emplace(u, fp);
    if (first) return;
    attempted += 1;
    if (fp != it->second) {
      failed += 1;
      errors.push_back(std::string(what) + ": universe " + std::to_string(u) +
                       " virtual metrics or counts differ from its first pass");
    }
  };

  // Untraced passes cycle through the universes (every one at least once);
  // trace mode alternates untraced and traced passes of universe 0.
  const int n_universes = args.trace ? 1 : w.universes;
  for (int k = 0;; ++k) {
    const int u = k % n_universes;
    const Workload wu = universe(w, u);
    plain.push_back(run_pass(wu, nullptr));
    note(plain.back(), "plain");
    check_same(u, plain.back(), "determinism");
    if (args.trace) {
      auto col = std::make_unique<obs::Collector>();
      traced.push_back(run_pass(wu, col.get()));
      note(traced.back(), "traced");
      check_same(u, traced.back(), "tracing neutrality");
      if (traced_layers.empty()) {
        traced_layers.push_back(layer_metrics(wu, traced.back(), *col));
      }
    }
    if (k + 1 >= n_universes && wall_now() - t_start >= args.seconds) break;
  }

  Metrics out;
  if (!args.trace) {
    // Host figures: each universe's median over its passes, averaged over
    // the universes.  Virtual figures carry no noise, only the spread
    // between universes: their mean over each universe once, so they do
    // not depend on how many passes time allowed.
    std::vector<std::vector<double>> setup(n_universes), wall(n_universes);
    std::vector<double> dump_v, restart_v;
    for (std::size_t k = 0; k < plain.size(); ++k) {
      const PassResult& p = plain[k];
      setup[k % n_universes].push_back(p.setup_h());
      wall[k % n_universes].push_back(p.wall_h);
      if (k >= static_cast<std::size_t>(n_universes)) continue;
      for (const GenResult& g : p.gens) {
        dump_v.push_back(g.dump_v);
        restart_v.push_back(g.restart_v);
      }
    }
    auto universe_mean = [](const std::vector<std::vector<double>>& per) {
      std::vector<double> medians;
      for (const auto& v : per) medians.push_back(median(v));
      return mean(medians);
    };
    out["setup_s"] = universe_mean(setup);
    out["wall_s"] = universe_mean(wall);
    out["peak_rss_mib"] = peak_rss_mib();
    out["dump_virtual_s"] = mean(dump_v);
    out["restart_virtual_s"] = mean(restart_v);
  } else {
    const PassResult& first = plain.front();
    out = count_metrics(universe(w, 0), first);
    for (const auto& [k, v] : traced_layers.front()) out[k] = v;
    std::vector<double> init, evolve, dump_h, restart_h, index, query_host,
        wall_plain, wall_traced;
    double query_v = 0.0;
    for (const PassResult& p : plain) {
      init.push_back(p.init_h);
      evolve.push_back(p.first_evolve_h);
      wall_plain.push_back(p.wall_h);
      for (const GenResult& g : p.gens) {
        if (g.evolve_h > 0.0) evolve.push_back(g.evolve_h);
        dump_h.push_back(g.dump_h);
        restart_h.push_back(g.restart_h);
        if (g.queries > 0) {
          index.push_back(g.index_h);
          query_host.push_back(g.query_h / static_cast<double>(g.queries));
        }
      }
    }
    for (const GenResult& g : first.gens) query_v += g.query_v;
    for (const PassResult& p : traced) wall_traced.push_back(p.wall_h);
    out["amr.init_host_s"] = median(init);
    out["enzo.evolve_host_s"] = median(evolve);
    out["enzo.dump_host_s"] = median(dump_h);
    out["enzo.restart_host_s"] = median(restart_h);
    out["query.index_host_s"] = median(index);
    out["query.host_us"] = median(query_host) * 1e6;
    out["query.p50_virtual_ms"] = percentile(first.query_latency, 50) * 1e3;
    out["query.p99_virtual_ms"] = percentile(first.query_latency, 99) * 1e3;
    out["query.virtual_MBps"] =
        query_v > 0.0 ? static_cast<double>(first.query_payload) / 1e6 / query_v
                      : 0.0;
    out["obs.overhead_s"] = median(wall_traced) - median(wall_plain);
    out["amr.make_particles_per_s"] = probe_make_particles(universe(w, 0));
    for (const auto& [k, v] : probe_collectives(w)) out[k] = v;

    // A second seed must change the inputs (guards an ignored --seed).
    Workload other = universe(
        make_workload(args.workload, args.seed + 1, args.slow_gpfs), 0);
    other.generations = 0;
    const PassResult alt = run_pass(other, nullptr);
    attempted += 1;
    if (alt.failed != 0 || alt.input_hash == first.input_hash) {
      failed += 1;
      errors.push_back("seed " + std::to_string(args.seed + 1) +
                       " produced the same inputs as seed " +
                       std::to_string(args.seed));
    }
  }
  out["error_rate"] =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;

  for (const std::string& e : errors) std::fprintf(stderr, "ERROR %s\n", e.c_str());
  std::printf("workload %s seed %llu: %zu plain + %zu traced passes, "
              "%.1f s, peak RSS %.0f MiB\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size(), wall_now() - t_start,
              peak_rss_mib());
  std::ostringstream js;
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first_metric = true;
  auto emit = [&](const MetricDef& d) {
    const double v = out.count(d.name) ? out.at(d.name) : 0.0;
    std::printf("  %-30s %16.6g %s\n", d.name, v, d.unit);
    js << (first_metric ? "" : ", ") << '"' << d.name << "\": {\"value\": "
       << json_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first_metric = false;
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
    std::printf("  %-30s %16.6g %s\n", "error_rate", out["error_rate"], "ratio");
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return failed == 0 ? 0 : 1;
}
