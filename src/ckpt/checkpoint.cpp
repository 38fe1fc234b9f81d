#include "ckpt/checkpoint.hpp"

namespace cbe::ckpt {

namespace {

constexpr char kJobTag[] = "JOB ";
constexpr char kRngTag[] = "RNG ";
constexpr char kProgTag[] = "PROG";
constexpr char kSchedTag[] = "SCHD";
constexpr char kFaultTag[] = "FALT";

// Guards against adversarial counts before any allocation: a section's
// element count can never legitimately exceed its byte length.
constexpr std::uint32_t kMaxReplicates = 1u << 20;
constexpr std::uint32_t kMaxTaxa = 1u << 20;

void encode_job(ImageWriter& w, const BootstrapJob& j) {
  w.begin(kJobTag);
  w.i32(j.taxa);
  w.i32(j.sites);
  w.u64(j.alignment_seed);
  w.f64(j.mean_branch_length);
  w.u64(j.seed);
  w.i32(j.bootstraps);
  w.f64(j.search.leaf_length);
  w.i32(j.search.branch_opt_rounds);
  w.i32(j.search.max_nni_rounds);
  w.f64(j.search.min_improvement);
  w.u64(j.fault_seed);
  w.f64(j.dma_bitflip_rate);
  w.f64(j.result_corrupt_rate);
  w.f64(j.verify_fraction);
  w.end();
}

BootstrapJob decode_job(PayloadReader r) {
  BootstrapJob j;
  j.taxa = r.i32();
  j.sites = r.i32();
  j.alignment_seed = r.u64();
  j.mean_branch_length = r.f64();
  j.seed = r.u64();
  j.bootstraps = r.i32();
  j.search.leaf_length = r.f64();
  j.search.branch_opt_rounds = r.i32();
  j.search.max_nni_rounds = r.i32();
  j.search.min_improvement = r.f64();
  j.fault_seed = r.u64();
  j.dma_bitflip_rate = r.f64();
  j.result_corrupt_rate = r.f64();
  j.verify_fraction = r.f64();
  r.expect_end();
  if (j.taxa < 3 || j.taxa > static_cast<int>(kMaxTaxa)) {
    r.fail("taxon count " + std::to_string(j.taxa) + " out of range");
  }
  if (j.sites <= 0 || j.bootstraps <= 0) {
    r.fail("non-positive site or bootstrap count");
  }
  auto bad01 = [](double v) { return !(v >= 0.0) || !(v <= 1.0); };
  if (bad01(j.dma_bitflip_rate) || bad01(j.result_corrupt_rate) ||
      bad01(j.verify_fraction)) {
    r.fail("integrity rate outside [0, 1]");
  }
  return j;
}

void encode_rng(ImageWriter& w, const util::RngState& st) {
  w.begin(kRngTag);
  for (std::uint64_t word : st.s) w.u64(word);
  w.u64(st.cached_normal_bits);
  w.u8(st.has_cached_normal ? 1 : 0);
  w.end();
}

util::RngState decode_rng(PayloadReader r) {
  util::RngState st;
  for (auto& word : st.s) word = r.u64();
  st.cached_normal_bits = r.u64();
  const std::uint8_t cached = r.u8();
  r.expect_end();
  if (cached > 1) r.fail("boolean flag out of range");
  st.has_cached_normal = cached == 1;
  return st;
}

void encode_tree(ImageWriter& w, const phylo::Tree& tree) {
  const phylo::Tree::Flat flat = tree.to_flat();
  w.i32(flat.n_taxa);
  w.u32(static_cast<std::uint32_t>(flat.edges.size()));
  for (const auto& e : flat.edges) {
    w.i32(e.a);
    w.i32(e.b);
    w.f64(e.length);
  }
  w.u32(static_cast<std::uint32_t>(flat.adj.size()));
  for (const auto& nbs : flat.adj) {
    w.u32(static_cast<std::uint32_t>(nbs.size()));
    for (const auto& nb : nbs) {
      w.i32(nb.node);
      w.i32(nb.edge);
    }
  }
}

phylo::Tree decode_tree(PayloadReader& r) {
  phylo::Tree::Flat flat;
  flat.n_taxa = r.i32();
  const std::uint32_t n_edges = r.u32();
  if (n_edges > 4 * kMaxTaxa) r.fail("edge count out of range");
  flat.edges.reserve(n_edges);
  for (std::uint32_t i = 0; i < n_edges; ++i) {
    phylo::Tree::Flat::FlatEdge e;
    e.a = r.i32();
    e.b = r.i32();
    e.length = r.f64();
    flat.edges.push_back(e);
  }
  const std::uint32_t n_nodes = r.u32();
  if (n_nodes > 4 * kMaxTaxa) r.fail("node count out of range");
  flat.adj.resize(n_nodes);
  for (std::uint32_t n = 0; n < n_nodes; ++n) {
    const std::uint32_t degree = r.u32();
    if (degree > 3) r.fail("node degree out of range");
    for (std::uint32_t k = 0; k < degree; ++k) {
      phylo::Tree::Neighbor nb;
      nb.node = r.i32();
      nb.edge = r.i32();
      flat.adj[n].push_back(nb);
    }
  }
  try {
    return phylo::Tree::from_flat(flat);
  } catch (const std::runtime_error& e) {
    r.fail(e.what());
  }
}

void encode_progress(ImageWriter& w, const std::vector<Replicate>& done) {
  w.begin(kProgTag);
  w.u32(static_cast<std::uint32_t>(done.size()));
  for (const Replicate& rep : done) {
    w.f64(rep.loglik);
    encode_tree(w, rep.tree);
  }
  w.end();
}

std::vector<Replicate> decode_progress(PayloadReader r,
                                       const BootstrapJob& job) {
  const std::uint32_t count = r.u32();
  if (count > kMaxReplicates) r.fail("replicate count out of range");
  if (count > static_cast<std::uint32_t>(job.bootstraps)) {
    r.fail("more completed replicates (" + std::to_string(count) +
           ") than the job's total (" + std::to_string(job.bootstraps) + ")");
  }
  std::vector<Replicate> done;
  done.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const double loglik = r.f64();
    phylo::Tree tree = decode_tree(r);
    if (tree.taxa() != job.taxa) {
      r.fail("replicate tree taxon count disagrees with the job");
    }
    done.push_back(Replicate{loglik, std::move(tree)});
  }
  r.expect_end();
  return done;
}

void encode_sched(ImageWriter& w, const SchedCounters& c) {
  w.begin(kSchedTag);
  w.u64(c.kernels);
  w.u64(c.offloads);
  w.u64(c.loop_splits);
  w.u64(c.ppe_fallbacks);
  w.u64(c.code_loads);
  w.u64(c.sim_events);
  w.f64(c.dma_bytes);
  w.f64(c.sim_seconds);
  w.f64(c.loop_degree_sum);
  w.end();
}

SchedCounters decode_sched(PayloadReader r) {
  SchedCounters c;
  c.kernels = r.u64();
  c.offloads = r.u64();
  c.loop_splits = r.u64();
  c.ppe_fallbacks = r.u64();
  c.code_loads = r.u64();
  c.sim_events = r.u64();
  c.dma_bytes = r.f64();
  c.sim_seconds = r.f64();
  c.loop_degree_sum = r.f64();
  r.expect_end();
  return c;
}

void encode_fault(ImageWriter& w, const RunState& st) {
  w.begin(kFaultTag);
  w.u64(st.job.fault_seed);
  w.i64(st.crash_position);
  w.end();
}

std::int64_t decode_fault(PayloadReader r, const BootstrapJob& job) {
  const std::uint64_t fault_seed = r.u64();
  const std::int64_t position = r.i64();
  r.expect_end();
  if (fault_seed != job.fault_seed) {
    r.fail("fault seed disagrees with the job section");
  }
  if (position < 0) r.fail("negative crash-clock position");
  return position;
}

}  // namespace

RunState make_fresh(const BootstrapJob& job) {
  RunState st;
  st.job = job;
  st.master = util::Rng(job.seed).state();
  return st;
}

std::vector<std::uint8_t> encode(const RunState& st) {
  std::vector<std::uint8_t> out;
  ImageWriter w(out, st.job.seed, 5);
  encode_job(w, st.job);
  encode_rng(w, st.master);
  encode_progress(w, st.done);
  encode_sched(w, st.sched);
  encode_fault(w, st);
  return out;
}

RunState decode(const std::vector<std::uint8_t>& bytes) {
  ImageReader image(bytes);
  RunState st;
  st.job = decode_job(image.next(kJobTag));
  if (image.seed() != st.job.seed) {
    throw CkptError(ErrorKind::Malformed,
                    "header seed disagrees with the job section");
  }
  st.master = decode_rng(image.next(kRngTag));
  st.done = decode_progress(image.next(kProgTag), st.job);
  st.sched = decode_sched(image.next(kSchedTag));
  st.crash_position = decode_fault(image.next(kFaultTag), st.job);
  return st;
}

int save(const std::string& path, const RunState& st,
         const IoRetryPolicy& retry) {
  return write_file_atomic_retry(path, encode(st), retry);
}

RunState load(const std::string& path) { return decode(read_file(path)); }

}  // namespace cbe::ckpt
