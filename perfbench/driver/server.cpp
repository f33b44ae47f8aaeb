// The `server` workload: hostrt's OffloadServer under concurrent clients.
//
//  (a) Open-loop burst: four tenants on four devices, every request due at
//      arrival_s = 0, a mixed gemm/bicg/atax trace per tenant. Client
//      threads: one per device, at most the host's core count (a thread
//      then serves several tenants in turn).
//  (b) Closed loop: a light tenant, each request arriving when its
//      previous one completed, against a heavy arrival_s = 0 backlog on the
//      same device under the default DRR policy.
//
// The seed picks each tenant's request-shape sequence: a permutation of a
// balanced gemm/bicg/atax mix. Latencies are modeled (end - arrival), so
// they count from when each request was due. Kernels are the benchmark's
// own charge-only bodies; in traced passes they time themselves and their
// devrt chunk calls.
#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cudadrv/cuda.h"
#include "devrt/devrt.h"
#include "hostrt/offload_server.h"
#include "hostrt/runtime.h"
#include "board.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace hostrt;

constexpr int kDevices = 4;
constexpr int kRotate = 16;       // output buffers per shape and tenant
constexpr int kClosedWindow = 4;  // per-tenant in-flight bound in (b)
constexpr int kWarmup = 4;        // light requests left out of the latencies
// Matrix sides: each trace spreads its requests evenly over a range.
constexpr int kBurstMinN = 48, kBurstMaxN = 80;
constexpr int kClosedMinN = 24, kClosedMaxN = 40;
const char* kModule = "perfbench_server_kernels.cubin";

enum Shape { kGemm = 0, kBicg = 1, kAtax = 2 };

// --- kernel bodies, with self-timing for traced passes ----------------------

// Set only while no client thread runs.
std::atomic<bool> g_time_bodies{false};

struct BodyTimes {
  double bodies = 0;
  double body_s = 0;
  double chunk_calls = 0;
  double chunk_s = 0;
  BodyTimes& operator+=(const BodyTimes& o) {
    bodies += o.bodies;
    body_s += o.body_s;
    chunk_calls += o.chunk_calls;
    chunk_s += o.chunk_s;
    return *this;
  }
};

// Kernel bodies run on whichever thread drives the device's dispatch, so
// each thread accumulates privately and folds into the total when done.
thread_local BodyTimes t_body_times;
std::mutex g_body_mu;
BodyTimes g_body_times;

void flush_body_times() {
  std::lock_guard<std::mutex> lk(g_body_mu);
  g_body_times += t_body_times;
  t_body_times = {};
}

BodyTimes take_body_times() {
  flush_body_times();
  std::lock_guard<std::mutex> lk(g_body_mu);
  BodyTimes out = g_body_times;
  g_body_times = {};
  return out;
}

template <typename F>
devrt::Chunk chunk(bool timed, F&& get) {
  if (!timed) return get();
  Clock::time_point t0 = Clock::now();
  devrt::Chunk c = get();
  t_body_times.chunk_s += seconds_between(t0, Clock::now());
  t_body_times.chunk_calls += 1;
  return c;
}

// One request kernel: the work split of a combined construct, then the
// analytic charge per owned row (no data is touched).
void request_body(jetsim::KernelCtx& ctx, const cudadrv::ArgPack& args,
                  Shape shape) {
  const bool timed = g_time_bodies.load(std::memory_order_relaxed);
  Clock::time_point t0;
  if (timed) t0 = Clock::now();
  devrt::combined_init(ctx);
  const int n = args.value<int>(3);
  const long long total = shape == kGemm ? 1LL * n * n : n;
  devrt::Chunk team = chunk(
      timed, [&] { return devrt::get_distribute_chunk(ctx, 0, total); });
  if (team.valid) {
    devrt::Chunk mine = chunk(timed, [&] {
      return devrt::get_static_chunk(ctx, team.lb, team.ub);
    });
    for (long long i = mine.lb; mine.valid && i < mine.ub; ++i) {
      switch (shape) {
        case kGemm:  // one dot row
          ctx.charge_gmem(jetsim::Access::Coalesced, 4, 2.0 * n);
          ctx.charge_flops(2.0 * n);
          break;
        case kBicg:  // one matvec row
          ctx.charge_gmem(jetsim::Access::Coalesced, 4, n + 1.0);
          ctx.charge_flops(2.0 * n);
          break;
        case kAtax:  // A row twice
          ctx.charge_gmem(jetsim::Access::Coalesced, 4, 2.0 * n);
          ctx.charge_flops(4.0 * n);
          break;
      }
    }
  }
  if (timed) {
    t_body_times.body_s += seconds_between(t0, Clock::now());
    t_body_times.bodies += 1;
  }
}

const char* kernel_name(Shape s) {
  static const char* names[] = {"_gemmKernel_", "_bicgKernel_",
                                "_ataxKernel_"};
  return names[s];
}

void install_request_kernels() {
  cudadrv::ModuleImage img;
  img.path = kModule;
  img.kind = cudadrv::BinaryKind::Cubin;
  for (Shape s : {kGemm, kBicg, kAtax}) {
    cudadrv::KernelImage k;
    k.name = kernel_name(s);
    k.param_count = 4;  // matrix, input, output, n
    k.entry = [s](jetsim::KernelCtx& ctx, const cudadrv::ArgPack& args) {
      request_body(ctx, args, s);
    };
    img.add_kernel(std::move(k));
  }
  cudadrv::BinaryRegistry::instance().install(std::move(img));
}

void fresh_board(int devices) {
  Runtime::reset();
  cudadrv::BinaryRegistry::instance().clear();
  install_request_kernels();
  cudadrv::cuSimSetBlockSampling(true);
  Runtime::set_num_devices(devices);
}

// --- requests ------------------------------------------------------------------

// One tenant's working set: read-only inputs plus rotating outputs, deeper
// than any in-flight window so a tenant's concurrent requests never
// serialize on an output buffer.
struct TenantBufs {
  std::vector<float> A, B, p, x;
  std::vector<std::vector<float>> out[3];
  int next_slot[3] = {0, 0, 0};

  explicit TenantBufs(int size)
      : A(static_cast<std::size_t>(size) * size, 1.0f),
        B(static_cast<std::size_t>(size) * size, 2.0f),
        p(static_cast<std::size_t>(size), 1.0f),
        x(static_cast<std::size_t>(size), 1.0f) {
    for (int r = 0; r < kRotate; ++r) {
      out[kGemm].emplace_back(static_cast<std::size_t>(size) * size, 0.0f);
      out[kBicg].emplace_back(static_cast<std::size_t>(size), 0.0f);
      out[kAtax].emplace_back(static_cast<std::size_t>(size), 0.0f);
    }
  }
};

struct Req {
  Shape shape = kGemm;
  int n = 0;
};

// Maps the first `elems` floats of `v`.
MapItem map_prefix(const std::vector<float>& v, std::size_t elems,
                   MapType type) {
  return {v.data(), elems * sizeof(float), type};
}

// Buffers are sized for the trace's largest side; a request of side n
// maps their prefixes.
ServerRequest make_request(TenantBufs& b, Req r, double arrival_s) {
  ServerRequest req;
  const std::size_t n = static_cast<std::size_t>(r.n);
  std::vector<float>& dst =
      b.out[r.shape][static_cast<std::size_t>(b.next_slot[r.shape]++ % kRotate)];
  const std::vector<float>& in =
      r.shape == kGemm ? b.B : (r.shape == kBicg ? b.p : b.x);
  const std::size_t elems = r.shape == kGemm ? n * n : n;
  req.spec.module_path = kModule;
  req.spec.kernel_name = kernel_name(r.shape);
  req.spec.geometry.teams_x = static_cast<unsigned>((elems + 127) / 128);
  req.spec.geometry.threads_x = 128;
  req.spec.args = {KernelArg::mapped(b.A.data()), KernelArg::mapped(in.data()),
                   KernelArg::mapped(dst.data()), KernelArg::of(r.n)};
  req.maps = {map_prefix(b.A, n * n, MapType::To),
              map_prefix(in, r.shape == kGemm ? n * n : n, MapType::To),
              map_prefix(dst, elems, MapType::From)};
  req.arrival_s = arrival_s;
  return req;
}

/// `count` requests covering every (shape, side) pair of the mix evenly,
/// in a seeded order: the seed changes the sequence, never the total work.
std::vector<Req> request_mix(std::size_t count, int min_n, int max_n,
                             std::uint64_t seed) {
  const std::size_t sides = static_cast<std::size_t>(max_n - min_n + 1);
  std::vector<Req> reqs;
  for (std::size_t i : permutation(count, seed))
    reqs.push_back({static_cast<Shape>(i % 3),
                    min_n + static_cast<int>((i / 3) % sides)});
  return reqs;
}

// Host wall time one client thread spent inside the server's API.
struct ClientWall {
  double submit_s = 0;
  double wait_s = 0;
  std::string error;
};

struct Sizes {
  int burst_per_tenant = 0;
  int light = 0;  // including the warm-up requests
  int heavy = 0;
};

class ServerWorkload : public Workload {
 public:
  ServerWorkload(std::uint64_t seed, Scale scale) : scale_(scale) {
    // 1500 measured light requests leave about 15 samples beyond p99.
    sizes_ = scale == Scale::Tiny ? Sizes{9, 24, 30}
                                  : Sizes{96, 1500 + kWarmup, 1500};
    for (int t = 0; t < kDevices; ++t)
      burst_reqs_.push_back(
          request_mix(static_cast<std::size_t>(sizes_.burst_per_tenant),
                      kBurstMinN, kBurstMaxN, seed * 8 + t));
    light_reqs_ = request_mix(static_cast<std::size_t>(sizes_.light),
                              kClosedMinN, kClosedMaxN, seed * 8 + 4);
    heavy_reqs_ = request_mix(static_cast<std::size_t>(sizes_.heavy),
                              kClosedMinN, kClosedMaxN, seed * 8 + 5);
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    threads_ = static_cast<int>(std::min<unsigned>(kDevices, cores));
  }

  void setup() override {
    // Board reset, kernel install, tenant registration and one warm-up
    // request per tenant.
    fresh_board(kDevices);
    OffloadServer srv{ServerOptions{}};
    std::vector<TenantBufs> bufs;
    bufs.reserve(kDevices);
    for (int d = 0; d < kDevices; ++d) {
      bufs.emplace_back(kBurstMaxN);
      srv.register_tenant(tenant(d), d);
    }
    for (int d = 0; d < kDevices; ++d) {
      srv.submit(tenant(d), make_request(bufs[static_cast<std::size_t>(d)],
                                         {kGemm, kBurstMinN}, 0));
      srv.close(tenant(d));
    }
    srv.drain();
    Runtime::reset();
  }

  PassOut pass(Tracer* tracer, std::uint64_t parent) override {
    PassOut out;
    const bool traced = tracer != nullptr;
    completed_ = 0;
    g_time_bodies.store(traced);
    take_body_times();
    ClientWall wall;
    BoardCounters board;
    double busy_s = 0;
    double makespan_a = burst(tracer, parent, out, wall, board, busy_s);
    std::vector<double> light, heavy;
    double makespan_b = closed(tracer, parent, out, wall, board, light, heavy);
    g_time_bodies.store(false);
    BodyTimes bodies = take_body_times();

    const double burst_requests = kDevices * sizes_.burst_per_tenant;
    const double lp50 = quantile(light, 0.50), lp99 = quantile(light, 0.99);
    double beyond = 0;
    for (double l : light) beyond += l > lp99 ? 1 : 0;
    if (!(lp50 <= lp99)) out.fail("server: light p50 > p99");
    if (scale_ == Scale::Full && beyond < 10)
      out.fail("server: fewer than 10 light samples beyond p99");
    out.model["board_s"] = makespan_a + makespan_b;
    out.model["server_board_rps"] = burst_requests / makespan_a;
    out.model["light_board_p50_s"] = lp50;
    out.model["light_board_p99_s"] = lp99;
    out.model["light_beyond_p99"] = beyond;
    out.model["server.heavy_board_p99_s"] = quantile(heavy, 0.99);
    out.model["server.device_busy_frac"] = busy_s / (kDevices * makespan_a);
    if (!traced) return out;

    out.layer["server.requests"] = static_cast<double>(out.attempted);
    out.layer["server.completed"] = completed_;
    out.layer["server.submit_wall_s"] = wall.submit_s;
    out.layer["server.wait_wall_s"] = wall.wait_s;
    out.layer["server.kernel_body_wall_s"] = bodies.body_s;
    out.layer["server.runtime_self_wall_s"] =
        wall.submit_s + wall.wait_s - bodies.body_s;
    out.layer["server.device_busy_frac"] = out.model["server.device_busy_frac"];
    out.layer["server.heavy_board_p99_s"] = out.model["server.heavy_board_p99_s"];
    board.report(wall.submit_s + wall.wait_s, out.layer);
    out.layer["devrt.chunk_calls"] = bodies.chunk_calls;
    out.layer["devrt.chunk_wall_s"] = bodies.chunk_s;
    return out;
  }

 private:
  static std::string tenant(int d) { return "tenant" + std::to_string(d); }

  // Checks one tenant's accounting after its work is done.
  void check_tenant(const OffloadServer& srv, const std::string& name,
                    std::uint64_t expected, PassOut& out) {
    OffloadServer::TenantStats st = srv.tenant_stats(name);
    completed_ += static_cast<double>(st.completed);
    if (st.submitted != expected || st.completed != st.submitted)
      out.fail("server: tenant " + name + " submitted " +
               std::to_string(st.submitted) + ", completed " +
               std::to_string(st.completed) + " of " +
               std::to_string(expected));
  }

  static void fold_wall(const std::vector<ClientWall>& walls, ClientWall& wall,
                        PassOut& out) {
    for (const ClientWall& w : walls) {
      wall.submit_s += w.submit_s;
      wall.wait_s += w.wait_s;
      if (!w.error.empty()) out.fail("server client: " + w.error);
    }
  }

  // (a) Returns the burst's makespan; `busy_s` receives the SM-engine time
  // (launch + kernel execution) its requests occupied, over all devices.
  double burst(Tracer* tracer, std::uint64_t parent, PassOut& out,
               ClientWall& wall, BoardCounters& board, double& busy_s) {
    Span phase(tracer, "server.burst", parent, 0);
    fresh_board(kDevices);
    ServerOptions so;  // default window (8), drr
    so.streams_per_tenant = OffloadQueue::kDefaultStreams;
    OffloadServer srv(so);
    std::vector<TenantBufs> bufs;
    bufs.reserve(kDevices);
    for (int d = 0; d < kDevices; ++d) {
      bufs.emplace_back(kBurstMaxN);
      srv.register_tenant(tenant(d), d);
    }
    const int per = sizes_.burst_per_tenant;
    std::vector<double> end(kDevices, 0.0);
    std::vector<ClientWall> walls(static_cast<std::size_t>(threads_));
    std::vector<std::thread> clients;
    for (int c = 0; c < threads_; ++c) {
      clients.emplace_back([&, c] {
        ClientWall& w = walls[static_cast<std::size_t>(c)];
        struct Sent {
          int device;
          std::uint64_t op;  // request id shared by its submit and wait spans
          Ticket ticket;
        };
        std::vector<Sent> sent;
        int d = c;
        try {
          for (; d < kDevices; d += threads_) {
            for (int i = 0; i < per; ++i) {
              std::uint64_t op = static_cast<std::uint64_t>(d * per + i);
              Span s(tracer, "server.submit_async", phase.id(), op, c + 1);
              sent.push_back(
                  {d, op,
                   srv.submit_async(
                       tenant(d),
                       make_request(bufs[static_cast<std::size_t>(d)],
                                    burst_reqs_[static_cast<std::size_t>(d)]
                                               [static_cast<std::size_t>(i)],
                                    0.0))});
              w.submit_s += s.end();
            }
            srv.close(tenant(d));
          }
          for (const Sent& q : sent) {
            Span s(tracer, "server.wait", phase.id(), q.op, c + 1);
            ServerResult r = srv.wait(q.ticket);
            w.wait_s += s.end();
            double& e = end[static_cast<std::size_t>(q.device)];
            e = std::max(e, r.end_s);
          }
        } catch (const std::exception& e) {
          w.error = e.what();
          for (; d < kDevices; d += threads_) srv.close(tenant(d));
        }
        flush_body_times();
      });
    }
    for (std::thread& t : clients) t.join();
    {
      Span s(tracer, "server.drain", phase.id(), 0);
      srv.drain();
      walls[0].wait_s += s.end();
    }
    fold_wall(walls, wall, out);
    out.attempted += static_cast<std::uint64_t>(kDevices * per);
    for (int d = 0; d < kDevices; ++d)
      check_tenant(srv, tenant(d), static_cast<std::uint64_t>(per), out);
    board.read(kDevices);  // the pass's first read: exec_s is the burst's
    busy_s = board.totals.exec_s;
    Runtime::reset();
    return *std::max_element(end.begin(), end.end());
  }

  // (b) Returns the closed loop's makespan and both tenants' latencies.
  double closed(Tracer* tracer, std::uint64_t parent, PassOut& out,
                ClientWall& wall, BoardCounters& board,
                std::vector<double>& light_lat,
                std::vector<double>& heavy_lat) {
    Span phase(tracer, "server.closed_loop", parent, 1);
    fresh_board(1);
    ServerOptions so;  // default drr
    so.max_inflight = kClosedWindow;
    OffloadServer srv(so);
    srv.register_tenant("light", 0);
    srv.register_tenant("heavy", 0);
    TenantBufs light_bufs(kClosedMaxN), heavy_bufs(kClosedMaxN);
    double light_end = 0, heavy_end = 0;
    std::vector<ClientWall> walls(2);
    const std::uint64_t base = static_cast<std::uint64_t>(kDevices) *
                               static_cast<std::uint64_t>(sizes_.burst_per_tenant);
    std::thread heavy([&] {
      ClientWall& w = walls[0];
      try {
        std::vector<Ticket> tickets;
        for (std::size_t i = 0; i < heavy_reqs_.size(); ++i) {
          Span s(tracer, "server.submit_async", phase.id(), base + i, 1);
          tickets.push_back(srv.submit_async(
              "heavy", make_request(heavy_bufs, heavy_reqs_[i], 0.0)));
          w.submit_s += s.end();
        }
        srv.close("heavy");
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          Span s(tracer, "server.wait", phase.id(), base + i, 1);
          ServerResult r = srv.wait(tickets[i]);
          w.wait_s += s.end();
          heavy_lat.push_back(r.latency_s);
          heavy_end = std::max(heavy_end, r.end_s);
        }
      } catch (const std::exception& e) {
        w.error = e.what();
        srv.close("heavy");
      }
      flush_body_times();
    });
    std::thread light([&] {
      ClientWall& w = walls[1];
      try {
        for (std::size_t i = 0; i < light_reqs_.size(); ++i) {
          // Closed loop: submit-and-wait, arrival = previous completion.
          Span s(tracer, "server.submit", phase.id(),
                 base + heavy_reqs_.size() + i, 2);
          ServerResult r =
              srv.submit("light", make_request(light_bufs, light_reqs_[i], -1));
          w.wait_s += s.end();
          if (i >= static_cast<std::size_t>(kWarmup))
            light_lat.push_back(r.latency_s);
          light_end = std::max(light_end, r.end_s);
        }
        srv.close("light");
      } catch (const std::exception& e) {
        w.error = e.what();
        srv.close("light");
      }
      flush_body_times();
    });
    heavy.join();
    light.join();
    {
      Span s(tracer, "server.drain", phase.id(), 0);
      srv.drain();
      walls[0].wait_s += s.end();
    }
    fold_wall(walls, wall, out);
    out.attempted += heavy_reqs_.size() + light_reqs_.size();
    check_tenant(srv, "heavy", heavy_reqs_.size(), out);
    check_tenant(srv, "light", light_reqs_.size(), out);
    board.read(1);
    Runtime::reset();
    return std::max(light_end, heavy_end);
  }

  Scale scale_;
  Sizes sizes_;
  int threads_ = 1;
  std::vector<std::vector<Req>> burst_reqs_;
  std::vector<Req> light_reqs_, heavy_reqs_;
  double completed_ = 0;  // this pass's completed requests, all tenants
};

}  // namespace

std::unique_ptr<Workload> make_server(std::uint64_t seed, Scale scale) {
  return std::make_unique<ServerWorkload>(seed, scale);
}

}  // namespace perfbench
