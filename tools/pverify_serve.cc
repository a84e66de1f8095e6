// pverify_serve: the network front end. Loads (or synthesizes) a dataset,
// builds the same engine stack the CLI batch mode would (sharded engines
// and the caching tier compose), and serves it over the binary wire
// protocol in src/net/ until SIGINT/SIGTERM.
//
//   pverify_serve --dataset=objects.txt
//   pverify_serve --synthetic=50000 --dim2=2000 --cache=4096 --port=7411
//
// Flags:
//   --port=N        TCP port (default 0 = kernel-assigned; the bound port
//                   is printed on stdout either way)
//   --port-file=F   also write the bound port to F (how scripts find an
//                   ephemeral port without parsing stdout)
//   --dataset=F     1-D dataset file (datagen/dataset_io.h format)
//   --synthetic=N   synthesize N 1-D intervals instead of loading a file
//   --dim2=N        additionally index N synthetic 2-D objects, making the
//                   engine dual-mode (kPoint2D/kKnn2D served too)
//   --threads=N     worker threads (0 = hardware concurrency)
//   --shards=N      scatter/gather across N shards
//   --policy=range  accepted for compatibility: range sharding is the only
//                   layout
//   --cache=N       wrap the engine in a CachingEngine of capacity N —
//                   repeated identical requests from ANY connection hit
//                   the memo
//   --max-conns=N   concurrent connection cap (default 64)
//   --max-frame=N   frame-body byte cap (oversized requests are answered
//                   with a typed kTooLarge error, then disconnected)
//   --inflight=N    per-connection in-flight cap (0 = unlimited); over it
//                   the server answers kOverloaded without dropping the
//                   connection
//   --admission=N   global queued-request admission limit (0 = unlimited)
//   --write-timeout-ms=N  slow-reader disconnect threshold (0 = never)
//   --drain-ms=N    SIGTERM grace: finish in-flight requests for up to N ms
//                   before stopping (SIGINT always stops immediately)
//
// Clients: pverify_cli batch ... --connect=host:port, the net_server tests
// and the pvbench driver all speak the same src/net/client.h library.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>

#include "datagen/dataset_io.h"
#include "datagen/synthetic.h"
#include "engine/caching_engine.h"
#include "engine/engine.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "net/server.h"
#include "parse_size.h"

using namespace pverify;

namespace {

// SIGINT/SIGTERM land here; the main loop polls it between sleeps. A flag
// rather than direct shutdown because Server::Stop joins threads, which is
// not async-signal-safe. SIGINT stops immediately; SIGTERM asks for a
// graceful drain first (finish in-flight work, reject new requests).
volatile std::sig_atomic_t g_stop = 0;

void HandleInt(int) { g_stop = 1; }
void HandleTerm(int) { g_stop = 2; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: pverify_serve (--dataset=FILE | --synthetic=N) [--dim2=N]\n"
      "                     [--port=N] [--port-file=FILE] [--threads=N]\n"
      "                     [--shards=N] [--policy=range] [--cache=N]\n"
      "                     [--max-conns=N] [--max-frame=BYTES] "
      "[--inflight=N]\n"
      "                     [--admission=N] [--write-timeout-ms=N] "
      "[--drain-ms=N]\n");
  return 2;
}

struct ServeFlags {
  uint16_t port = 0;
  std::string port_file;
  std::string dataset_path;
  size_t synthetic = 0;
  size_t dim2 = 0;
  size_t threads = 0;
  size_t shards = 0;
  size_t cache = 0;
  size_t max_conns = 64;
  size_t max_frame = 0;  // 0 = keep the library default
  size_t inflight = 128;
  size_t admission = 1024;
  size_t write_timeout_ms = 5000;
  size_t drain_ms = 2000;
};

std::unique_ptr<Engine> BuildEngine(const ServeFlags& flags, Dataset data,
                                    Dataset2D data2d) {
  const bool dual = flags.dim2 > 0;
  std::unique_ptr<Engine> engine;
  if (flags.shards == 0) {
    EngineOptions eopt;
    eopt.num_threads = flags.threads;
    engine = dual ? std::make_unique<QueryEngine>(std::move(data),
                                                  std::move(data2d), eopt)
                  : std::make_unique<QueryEngine>(std::move(data), eopt);
  } else {
    ShardedEngineOptions sopt;
    sopt.num_shards = flags.shards;
    sopt.num_threads = flags.threads;
    engine = dual ? std::make_unique<ShardedQueryEngine>(
                        std::move(data), std::move(data2d), sopt)
                  : std::make_unique<ShardedQueryEngine>(std::move(data),
                                                         sopt);
  }
  if (flags.cache > 0) {
    CachingEngineOptions copt;
    copt.capacity = flags.cache;
    engine = std::make_unique<CachingEngine>(std::move(engine), copt);
  }
  return engine;
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    size_t n = 0;
    if (std::strncmp(a, "--port=", 7) == 0 && ParseSize(a + 7, &n) &&
        n <= 65535) {
      flags.port = static_cast<uint16_t>(n);
    } else if (std::strncmp(a, "--port-file=", 12) == 0) {
      flags.port_file = a + 12;
    } else if (std::strncmp(a, "--dataset=", 10) == 0) {
      flags.dataset_path = a + 10;
    } else if (std::strncmp(a, "--synthetic=", 12) == 0 &&
               ParseSize(a + 12, &n) && n > 0) {
      flags.synthetic = n;
    } else if (std::strncmp(a, "--dim2=", 7) == 0 && ParseSize(a + 7, &n)) {
      flags.dim2 = n;
    } else if (std::strncmp(a, "--threads=", 10) == 0 &&
               ParseSize(a + 10, &n)) {
      flags.threads = n;
    } else if (std::strncmp(a, "--shards=", 9) == 0 && ParseSize(a + 9, &n)) {
      flags.shards = n;
    } else if (std::strcmp(a, "--policy=range") == 0) {
      // The one sharding layout; the flag stays for existing scripts.
    } else if (std::strncmp(a, "--cache=", 8) == 0 && ParseSize(a + 8, &n)) {
      flags.cache = n;
    } else if (std::strncmp(a, "--max-conns=", 12) == 0 &&
               ParseSize(a + 12, &n) && n > 0) {
      flags.max_conns = n;
    } else if (std::strncmp(a, "--max-frame=", 12) == 0 &&
               ParseSize(a + 12, &n) && n > 0) {
      flags.max_frame = n;
    } else if (std::strncmp(a, "--inflight=", 11) == 0 &&
               ParseSize(a + 11, &n)) {
      flags.inflight = n;
    } else if (std::strncmp(a, "--admission=", 12) == 0 &&
               ParseSize(a + 12, &n)) {
      flags.admission = n;
    } else if (std::strncmp(a, "--write-timeout-ms=", 19) == 0 &&
               ParseSize(a + 19, &n)) {
      flags.write_timeout_ms = n;
    } else if (std::strncmp(a, "--drain-ms=", 11) == 0 &&
               ParseSize(a + 11, &n)) {
      flags.drain_ms = n;
    } else {
      std::fprintf(stderr, "error: bad argument %s\n", a);
      return Usage();
    }
  }
  if (flags.dataset_path.empty() == (flags.synthetic == 0)) {
    std::fprintf(stderr,
                 "error: exactly one of --dataset / --synthetic required\n");
    return Usage();
  }

  try {
    Dataset data;
    if (!flags.dataset_path.empty()) {
      data = datagen::LoadDataset(flags.dataset_path);
      std::printf("# loaded %zu objects from %s\n", data.size(),
                  flags.dataset_path.c_str());
    } else {
      datagen::SyntheticConfig config;
      config.count = flags.synthetic;
      data = datagen::MakeSynthetic(config);
      std::printf("# synthesized %zu 1-D objects\n", data.size());
    }
    Dataset2D data2d;
    if (flags.dim2 > 0) {
      datagen::Synthetic2DConfig config;
      config.count = flags.dim2;
      data2d = datagen::MakeSynthetic2D(config);
      std::printf("# synthesized %zu 2-D objects (dual-mode engine)\n",
                  data2d.size());
    }

    std::unique_ptr<Engine> engine =
        BuildEngine(flags, std::move(data), std::move(data2d));

    net::ServerOptions sopt;
    sopt.port = flags.port;
    sopt.max_connections = flags.max_conns;
    if (flags.max_frame > 0) {
      sopt.max_body_bytes = static_cast<uint32_t>(flags.max_frame);
    }
    sopt.max_inflight_per_conn = flags.inflight;
    sopt.max_pending = flags.admission;
    sopt.write_timeout_ms = static_cast<uint32_t>(flags.write_timeout_ms);
    net::Server server(*engine, sopt);
    server.Start();

    // Scripts watch for this line (or read --port-file) to learn the
    // ephemeral port; flush so it is visible through a pipe immediately.
    std::printf("listening on port %u (threads=%zu shards=%zu cache=%zu "
                "max-conns=%zu)\n",
                server.port(), engine->num_threads(), flags.shards,
                flags.cache, flags.max_conns);
    std::fflush(stdout);
    if (!flags.port_file.empty()) {
      FILE* f = std::fopen(flags.port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     flags.port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }

    std::signal(SIGINT, HandleInt);
    std::signal(SIGTERM, HandleTerm);
    while (g_stop == 0) {
      struct timespec ts = {0, 50 * 1000 * 1000};  // 50 ms
      nanosleep(&ts, nullptr);
    }

    if (g_stop == 2 && flags.drain_ms > 0) {
      bool drained = server.Drain(static_cast<uint32_t>(flags.drain_ms));
      std::printf("# drain: %s\n",
                  drained ? "completed cleanly" : "deadline hit");
    }
    server.Stop();
    net::ServerStats stats = server.stats();
    std::printf("# served %llu requests over %llu connections "
                "(%llu request errors, %llu protocol errors, %llu "
                "rejected)\n",
                static_cast<unsigned long long>(stats.requests_served),
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.request_errors),
                static_cast<unsigned long long>(stats.protocol_errors),
                static_cast<unsigned long long>(stats.connections_rejected));
    std::printf("# backpressure: %llu overloaded, %llu deadline-expired, "
                "%llu slow-reader disconnects, %llu shutdown-rejected\n",
                static_cast<unsigned long long>(stats.overload_rejections),
                static_cast<unsigned long long>(stats.deadline_expirations),
                static_cast<unsigned long long>(
                    stats.slow_reader_disconnects),
                static_cast<unsigned long long>(stats.shutdown_rejections));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
