//===- perfbench/flashbench.cpp - The repository benchmark -------*- C++ -*-//
///
/// \file
/// One process, loopback traffic, the serving stack dsu-flashed ships: a
/// 2-worker net::ReactorPool (pinned to CPUs 0-1) serving
/// FlashedApp::handleInto, with the Runtime's UpdateController, the /admin
/// plane and a durable journal (Sync off).  At most two load-generator
/// threads, pinned to CPUs 2-3, drive at most four connections.
///
///   flashbench --workload W --seed N --seconds S --trace 0|1 --work-dir D
///
/// Workloads (see perfbench/README.md for the why of each):
///
///   keepalive_hot   closed loop, 4 keep-alive connections, 64 cached docs
///   keepalive_vtal  the same after setup commits the two VTAL artifacts
///   oneshot_cold    HTTP/1.0, a new connection per request, 1024 docs
///                   visited once per pass in seeded order, cache emptied
///                   before every pass
///   update_churn    open loop on 3 keep-alive connections at a fixed rate
///                   while an operator alternates rolling VTAL artifacts
///                   (POST /admin/patches) and barrier identity bumps
///
/// With --trace 0 the last stdout line carries the end-to-end metrics;
/// with --trace 1 it carries the per-layer ledger: spans recorded at the
/// benchmark's own boundaries (client send/receive, a wrapper around the
/// handler, operator submit/commit), replays of a seeded sample of the
/// run's requests through the layers' public functions, and the
/// program's own counters and flight-recorder spans read through their
/// public APIs.  Every response is checked against the generator's copy.
///
//===----------------------------------------------------------------------===//

#include "epoch/Epoch.h"
#include "flashed/App.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/Manifest.h"
#include "patch/PatchBuilder.h"
#include "persist/Journal.h"
#include "persist/Replay.h"
#include "runtime/UpdateController.h"
#include "support/Logging.h"
#include "support/MemoryBuffer.h"
#include "trace/Trace.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/native/NativeImage.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

// --- Clocks and statistics ---------------------------------------------

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double processCpuS() {
  rusage R{};
  ::getrusage(RUSAGE_SELF, &R);
  return R.ru_utime.tv_sec + R.ru_utime.tv_usec * 1e-6 + R.ru_stime.tv_sec +
         R.ru_stime.tv_usec * 1e-6;
}

/// CPU time of another live thread of this process.
double threadCpuS(pthread_t T) {
  clockid_t C;
  timespec Ts{};
  if (::pthread_getcpuclockid(T, &C) != 0 || ::clock_gettime(C, &Ts) != 0)
    return 0;
  return Ts.tv_sec + Ts.tv_nsec * 1e-9;
}

/// Linear-interpolation quantile (the "type 7" estimator).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t I = static_cast<size_t>(Pos);
  size_t J = std::min(I + 1, V.size() - 1);
  return V[I] + (V[J] - V[I]) * (Pos - static_cast<double>(I));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets
/// per power of two (under 1% relative width).  Fixed size, so the
/// benchmark's own memory does not grow with the request count.
struct Hist {
  static constexpr unsigned Sub = 128;
  std::vector<uint32_t> C = std::vector<uint32_t>(Sub * 27);
  uint64_t N = 0;

  static unsigned bucket(uint64_t V) {
    if (V < Sub)
      return static_cast<unsigned>(V);
    unsigned Lg = 63 - static_cast<unsigned>(__builtin_clzll(V));
    return Sub * (Lg - 6) + static_cast<unsigned>((V >> (Lg - 7)) - Sub);
  }
  static double lower(unsigned B, double &Width) {
    if (B < Sub) {
      Width = 1;
      return B;
    }
    unsigned Lg = B / Sub + 6;
    Width = std::ldexp(1.0, static_cast<int>(Lg) - 7);
    return (Sub + B % Sub) * Width;
  }
  void add(uint64_t V) {
    ++C[std::min<unsigned>(bucket(V), static_cast<unsigned>(C.size()) - 1)];
    ++N;
  }
  void merge(const Hist &O) {
    for (size_t I = 0; I != C.size(); ++I)
      C[I] += O.C[I];
    N += O.N;
  }
  /// Quantile \p Q, interpolated within the bucket it falls in.
  double quantile(double Q) const {
    if (!N)
      return 0;
    double Rank = Q * static_cast<double>(N - 1);
    uint64_t Below = 0;
    for (unsigned B = 0; B != C.size(); ++B) {
      if (!C[B])
        continue;
      if (Rank < static_cast<double>(Below + C[B])) {
        double Width;
        double Lo = lower(B, Width);
        return Lo + Width * (Rank - static_cast<double>(Below) + 0.5) / C[B];
      }
      Below += C[B];
    }
    return 0;
  }
};

/// Keeps a computed value alive across the optimizer.
template <typename T> inline void keep(const T &V) {
  asm volatile("" : : "r,m"(V) : "memory");
}

// --- Seeded inputs -----------------------------------------------------

/// SplitMix64: one seed fixes every derived stream.
struct Rng {
  uint64_t S;
  Rng(uint64_t Seed, uint64_t Stream)
      : S(Seed * 0x9e3779b97f4a7c15ull ^ (Stream + 1) * 0xd1b54a32d192ed03ull) {
  }
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

enum Stream : uint64_t {
  StreamNames = 1,
  StreamBodies,
  StreamOrder,
  StreamSchedule,
  StreamReplay,
  StreamPass = 1000,
};

constexpr size_t DocBytes = 1024;
constexpr unsigned MaxGenThreads = 2;
constexpr unsigned Workers = 2;
constexpr size_t OrderLen = 1 << 14;
constexpr unsigned WarmPerConn = 1500;
constexpr unsigned SetupRepeats = 7;
constexpr unsigned DrillUpdates = 1000;
constexpr double ChurnPeriodMs = 8.0;
constexpr size_t ReplaySample = 256;

struct Spec {
  const char *Name;
  unsigned Docs;
  bool KeepAlive;  ///< HTTP/1.1 persistent vs HTTP/1.0 one-shot
  unsigned Conns;  ///< connections carrying GET traffic
  unsigned Threads; ///< load-generator threads (CPUs 2, 3)
  double RateRps;  ///< open-loop offered rate; 0 = closed loop
  bool VtalSetup;  ///< setup commits the two shipped VTAL artifacts
  bool Churn;      ///< updates run during the measured window
};

const Spec Specs[] = {
    {"keepalive_hot", 64, true, 4, 2, 0, false, false},
    {"keepalive_vtal", 64, true, 4, 2, 0, true, false},
    {"oneshot_cold", 1024, false, 2, 2, 0, false, false},
    // One generator thread, so CPU 3 stays free for the operator and
    // the staging worker while the open loop spins on CPU 2.
    {"update_churn", 64, true, 3, 1, 24000, true, true},
};

/// Everything the program receives, derived from the seed alone.
struct Inputs {
  uint64_t Seed = 0;
  std::vector<std::string> Paths;
  std::vector<std::string> Bodies;
  std::vector<std::string> Requests; ///< raw GET per document
  /// Per-connection keep-alive target sequences.
  std::vector<std::vector<uint32_t>> Orders;
  /// Update schedule: which artifact leads, and per-step jitter.
  unsigned FirstArtifact = 0;
  std::vector<uint32_t> JitterUs;
  std::string Artifacts[2]; ///< parse fix, mime svg
};

Inputs makeInputs(const Spec &S, uint64_t Seed) {
  Inputs In;
  In.Seed = Seed;
  Rng Names(Seed, StreamNames), Bodies(Seed, StreamBodies);
  static const char Alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789 \n";
  for (unsigned I = 0; I != S.Docs; ++I) {
    // doc1 stays .html: it is the query-string probe's target.
    uint64_t R = Names.below(8);
    const char *Ext = I == 1 ? "html" : R == 0 ? "svg" : R == 1 ? "txt" : "html";
    In.Paths.push_back("/doc" + std::to_string(I) + "." + Ext);
    std::string B(DocBytes, ' ');
    for (char &C : B)
      C = Alphabet[Bodies.below(sizeof(Alphabet) - 1)];
    In.Bodies.push_back(std::move(B));
    In.Requests.push_back("GET " + In.Paths.back() +
                          (S.KeepAlive ? " HTTP/1.1\r\n" : " HTTP/1.0\r\n") +
                          "Host: bench\r\n\r\n");
  }
  for (unsigned C = 0; C != S.Conns; ++C) {
    Rng O(Seed, StreamOrder + 16 * C);
    std::vector<uint32_t> Seq(OrderLen);
    for (uint32_t &D : Seq)
      D = static_cast<uint32_t>(O.below(S.Docs));
    In.Orders.push_back(std::move(Seq));
  }
  Rng Sched(Seed, StreamSchedule);
  In.FirstArtifact = static_cast<unsigned>(Sched.below(2));
  for (unsigned I = 0; I != 1 << 14; ++I)
    In.JitterUs.push_back(
        static_cast<uint32_t>(Sched.below(ChurnPeriodMs * 250)));
  In.Artifacts[0] = vtalParseFixPatchText();
  Expected<std::string> Svg =
      readFile(std::string(DSU_SOURCE_DIR) + "/examples/mime_svg.dsup");
  if (Svg)
    In.Artifacts[1] = std::move(*Svg);
  return In;
}

/// Seeded visiting order of pass \p Pass (every document once).
std::vector<uint32_t> passOrder(const Inputs &In, unsigned Pass) {
  std::vector<uint32_t> O(In.Paths.size());
  for (uint32_t I = 0; I != O.size(); ++I)
    O[I] = I;
  Rng R(In.Seed, StreamPass + Pass);
  for (size_t I = O.size(); I > 1; --I)
    std::swap(O[I - 1], O[R.below(I)]);
  return O;
}

/// The Content-Type the live mime_type binding must answer: v1's table,
/// or examples/mime_svg.dsup once it has committed.
std::string expectedType(const std::string &Path, bool SvgPatch) {
  if (SvgPatch)
    return Path.find(".svg") != std::string::npos ? "image/svg+xml"
                                                  : "text/html";
  std::string Ext = Path.substr(Path.rfind('.') + 1);
  if (Ext == "html" || Ext == "htm")
    return "text/html";
  if (Ext == "txt")
    return "text/plain";
  return "application/octet-stream";
}

// --- HTTP client side ----------------------------------------------------

struct Resp {
  int Status = 0;
  std::string_view Type;
  size_t Len = 0;
  size_t HeadLen = 0;
  size_t total() const { return HeadLen + Len; }
};

bool iequal(std::string_view A, std::string_view B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(A[I])) !=
        std::tolower(static_cast<unsigned char>(B[I])))
      return false;
  return true;
}

/// 1 = a whole response is buffered, 0 = need more bytes, -1 = malformed.
int parseResp(const char *B, size_t N, Resp &R) {
  std::string_view V(B, N);
  size_t End = V.find("\r\n\r\n");
  if (End == std::string_view::npos)
    return N > 8192 ? -1 : 0;
  R = Resp();
  R.HeadLen = End + 4;
  std::string_view Head = V.substr(0, End);
  size_t Eol = Head.find("\r\n");
  std::string_view First = Head.substr(0, Eol);
  if (First.size() < 12 || First.substr(0, 5) != "HTTP/")
    return -1;
  R.Status = std::atoi(std::string(First.substr(9, 3)).c_str());
  bool HaveLen = false;
  std::string_view Rest =
      Eol == std::string_view::npos ? std::string_view() : Head.substr(Eol + 2);
  while (!Rest.empty()) {
    size_t E = Rest.find("\r\n");
    std::string_view Line = Rest.substr(0, E);
    Rest = E == std::string_view::npos ? std::string_view() : Rest.substr(E + 2);
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue;
    std::string_view Name = Line.substr(0, Colon);
    std::string_view Val = Line.substr(Colon + 1);
    while (!Val.empty() && Val.front() == ' ')
      Val.remove_prefix(1);
    if (iequal(Name, "content-type")) {
      R.Type = Val;
    } else if (iequal(Name, "content-length")) {
      size_t L = 0;
      for (char C : Val) {
        if (C < '0' || C > '9' || L > (1u << 30))
          return -1;
        L = L * 10 + static_cast<size_t>(C - '0');
      }
      R.Len = L;
      HaveLen = true;
    }
  }
  if (!HaveLen)
    return -1;
  return N >= R.total() ? 1 : 0;
}

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  timeval Tv{5, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  A.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// One client connection with its receive buffer.
struct Conn {
  int Fd = -1;
  std::vector<char> Buf = std::vector<char>(1 << 16);
  size_t Len = 0;
  const std::vector<uint32_t> *Order = nullptr;
  size_t Cursor = 0;
  bool Busy = false;
  uint32_t Doc = 0;
  uint32_t Id = 0;
  uint64_t SendNs = 0, DueNs = 0, NextDue = 0;

  ~Conn() { close(); }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Len = 0;
    Busy = false;
  }

  /// Reads what is available; -1 transport failure or malformed, 0 need
  /// more, 1 a whole response is in Buf (described by \p R).
  int pump(Resp &R) {
    if (Len == Buf.size())
      return -1;
    ssize_t N = ::recv(Fd, Buf.data() + Len, Buf.size() - Len, 0);
    if (N < 0 && errno == EINTR)
      return 0;
    if (N <= 0)
      return -1;
    Len += static_cast<size_t>(N);
    return parseResp(Buf.data(), Len, R);
  }

  /// Blocking read of one response.
  bool readOne(Resp &R) {
    int P = parseResp(Buf.data(), Len, R);
    while (P == 0)
      P = pump(R);
    return P == 1;
  }

  void consume(const Resp &R) {
    size_t T = R.total();
    std::memmove(Buf.data(), Buf.data() + T, Len - T);
    Len -= T;
  }
};

// --- The stack under test ------------------------------------------------

/// Per-request handler spans of one pool worker (traced runs only).
struct HandlerLog {
  pid_t Tid = 0;
  struct Span {
    uint32_t Id;
    uint32_t DurNs;
    uint64_t StartNs;
  };
  std::vector<Span> Spans;
};

struct HandlerLogs {
  std::mutex Mu;
  std::vector<std::unique_ptr<HandlerLog>> Logs;
  std::atomic<bool> Tracing{false};
};

thread_local HandlerLog *MyHandlerLog = nullptr;

/// Request id a traced client put in the head ("X-Bench-Id: N").
uint32_t requestId(std::string_view Raw) {
  size_t P = Raw.find("X-Bench-Id: ");
  if (P == std::string_view::npos)
    return 0;
  uint32_t Id = 0;
  for (size_t I = P + 12; I < Raw.size() && Raw[I] >= '0' && Raw[I] <= '9';
       ++I)
    Id = Id * 10 + static_cast<uint32_t>(Raw[I] - '0');
  return Id;
}

/// dsu-flashed's serving stack, with the journal opened Sync-off.
struct Stack {
  std::unique_ptr<persist::UpdateJournal> Journal;
  Runtime RT;
  FlashedApp App{RT};
  std::unique_ptr<net::ReactorPool> Pool;
  /// Requests and connections the benchmark sent to this stack; checked
  /// against the pool's WorkerStats at the end.
  std::atomic<uint64_t> SentRequests{0}, SentConnects{0};

  ~Stack() {
    if (Pool)
      Pool->stop();
    RT.controller().waitIdle();
    RT.attachJournal(nullptr);
  }
};

std::string fail(const char *What, const std::string &Why) {
  return std::string(What) + ": " + Why;
}

/// Builds the stack; returns an error message on failure.
std::string buildStack(Stack &S, const Inputs &In,
                       const std::string &JournalDir, HandlerLogs *Logs) {
  std::error_code EC;
  std::filesystem::remove_all(JournalDir, EC);
  persist::UpdateJournal::Options JO;
  JO.Sync = false;
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(JournalDir, JO);
  if (!J)
    return fail("journal", J.takeError().str());
  S.Journal = std::move(*J);
  S.Journal->beginBoot("");

  DocStore Docs;
  for (size_t I = 0; I != In.Paths.size(); ++I)
    Docs.put(In.Paths[I], In.Bodies[I]);
  if (Error E = S.App.init(std::move(Docs)))
    return fail("init", E.str());
  // The cell the barrier workload's identity bumps migrate.
  if (Error E = S.RT.defineNamedType({"bench_counter", 1},
                                     S.RT.types().intType()))
    return fail("counter type", E.str());
  Expected<StateCell *> Cell =
      S.RT.defineState("bench.counter", S.RT.types().namedType("bench_counter", 1),
                       std::make_shared<int64_t>(1));
  if (!Cell)
    return fail("counter cell", Cell.takeError().str());

  S.RT.attachJournal(S.Journal.get());
  S.App.attachJournal(*S.Journal);
  persist::replayJournal(S.RT, *S.Journal);

  S.App.enableAdmin(S.RT.controller());
  net::PoolOptions O;
  O.Workers = Workers;
  O.PollTimeoutMs = 2;
  O.PinWorkers = true;
  FlashedApp &App = S.App;
  net::ReactorPool::FastHandler H;
  if (!Logs) {
    H = [&App](const RequestHead &Head, std::string_view Raw, std::string &Out,
               SharedBody &Body) { App.handleInto(Head, Raw, Out, Body); };
  } else {
    H = [&App, Logs](const RequestHead &Head, std::string_view Raw,
                     std::string &Out, SharedBody &Body) {
      if (!MyHandlerLog) {
        auto L = std::make_unique<HandlerLog>();
        L->Tid = static_cast<pid_t>(::syscall(SYS_gettid));
        L->Spans.reserve(1 << 19);
        std::lock_guard<std::mutex> G(Logs->Mu);
        MyHandlerLog = L.get();
        Logs->Logs.push_back(std::move(L));
      }
      if (!Logs->Tracing.load(std::memory_order_relaxed)) {
        App.handleInto(Head, Raw, Out, Body);
        return;
      }
      uint64_t T0 = nowNs();
      App.handleInto(Head, Raw, Out, Body);
      uint64_t Dur = nowNs() - T0;
      if (uint32_t Id = requestId(Raw))
        MyHandlerLog->Spans.push_back(
            {Id, static_cast<uint32_t>(std::min<uint64_t>(Dur, UINT32_MAX)),
             T0});
    };
  }
  S.Pool = std::make_unique<net::ReactorPool>(std::move(H), O);
  S.Pool->setUpdateRuntime(S.RT);
  S.App.attachPool(*S.Pool);
  if (Error E = S.Pool->start())
    return fail("listen", E.str());
  return "";
}

/// Pins the calling thread to the \p Nth CPU this process may use.
void pinToNthCpu(unsigned Nth) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Nth % Cpus.size()], &One);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(One), &One);
}

// --- Load generation -----------------------------------------------------

struct ClientSpan {
  uint32_t Id;
  uint32_t DurNs;
  uint64_t SendNs;
  bool Miss;
};

/// One generator thread's records (owned by that thread until joined).
struct GenThread {
  std::vector<Hist> Win; ///< latency per measurement window (ns)
  Hist Late;             ///< open-loop send lateness (ns)
  uint64_t Done = 0;     ///< requests completed and verified after go
  std::vector<ClientSpan> Spans;
  uint64_t Failed = 0;
  std::string FirstFailure;
  std::thread T;
};

enum Phase : int { PhaseWarm, PhaseGo, PhaseStop };

/// Coordinates the oneshot passes between the generator threads.
struct PassState {
  std::vector<uint32_t> Order;
  unsigned Pass = 0;
  std::atomic<uint32_t> Next{0};
  std::atomic<unsigned> Finished{0};
  std::atomic<uint32_t> Gen{0};
  std::atomic<uint64_t> PassesDone{0};
  std::atomic<uint64_t> BadPasses{0};
  std::atomic<uint64_t> LastEntries{0};
};

size_t cacheEntries(FlashedApp &App) {
  epoch::Guard G;
  return App.cacheCell()->live<const CacheV1>()->Entries.size();
}

/// "A fresh cache": publishes an empty payload through the state cell.
void resetCache(FlashedApp &App) {
  StateCell *C = App.cacheCell();
  std::lock_guard<std::mutex> G(C->payloadLock());
  C->publish(std::make_shared<CacheV1>());
}

struct Load {
  const Spec &Sp;
  const Inputs &In;
  Stack &St;
  std::atomic<int> Ph{PhaseWarm};
  std::atomic<bool> Tracing{false};
  std::atomic<uint32_t> NextId{1};
  std::atomic<unsigned> Warm{0};
  std::atomic<bool> SvgPatched{false};
  uint64_t StartNs = 0, WinNs = 1;
  PassState Pass;
  GenThread G[MaxGenThreads];

  Load(const Spec &Sp, const Inputs &In, Stack &St, unsigned NumWindows)
      : Sp(Sp), In(In), St(St) {
    for (GenThread &T : G)
      T.Win.resize(NumWindows);
  }

  /// Records one verified response; latency counts from \p FromNs.
  void record(GenThread &T, uint64_t FromNs, uint64_t DoneNs) {
    ++T.Done;
    if (DoneNs < StartNs)
      return;
    uint64_t W = (DoneNs - StartNs) / WinNs;
    if (W < T.Win.size())
      T.Win[W].add(DoneNs - FromNs);
  }

  void noteFailure(GenThread &T, const std::string &Why) {
    if (T.Failed++ == 0)
      T.FirstFailure = Why;
  }

  bool check(const Resp &R, const char *Body, uint32_t Doc) {
    const std::string &B = In.Bodies[Doc];
    return R.Status == 200 &&
           R.Type == expectedType(In.Paths[Doc],
                                  SvgPatched.load(std::memory_order_relaxed)) &&
           R.Len == B.size() && std::memcmp(Body, B.data(), B.size()) == 0;
  }

  std::string request(uint32_t Doc, uint32_t Id) const {
    const std::string &Base = In.Requests[Doc];
    if (!Id)
      return Base;
    return Base.substr(0, Base.size() - 2) + "X-Bench-Id: " +
           std::to_string(Id) + "\r\n\r\n";
  }

  // -- keep-alive ----------------------------------------------------------

  bool send(Conn &C, uint64_t DueNs) {
    C.Doc = (*C.Order)[C.Cursor++ % C.Order->size()];
    C.Id = Tracing.load(std::memory_order_relaxed)
               ? NextId.fetch_add(1, std::memory_order_relaxed)
               : 0;
    std::string Req = request(C.Doc, C.Id);
    C.SendNs = nowNs();
    C.DueNs = DueNs ? DueNs : C.SendNs;
    St.SentRequests.fetch_add(1, std::memory_order_relaxed);
    C.Busy = sendAll(C.Fd, Req);
    return C.Busy;
  }

  bool reconnect(Conn &C) {
    C.close();
    C.Fd = connectLoopback(St.Pool->port());
    if (C.Fd >= 0)
      St.SentConnects.fetch_add(1, std::memory_order_relaxed);
    return C.Fd >= 0;
  }

  /// Connects \p C so that pool worker \p Worker accepts it: the
  /// kernel's SO_REUSEPORT hash picks the worker from the source port,
  /// so a connection that lands elsewhere is closed and retried.  Fixing
  /// the spread keeps run-to-run figures comparable.
  bool connectTo(Conn &C, unsigned Worker) {
    net::ReactorPool &P = *St.Pool;
    for (unsigned Try = 0; Try != 64; ++Try) {
      std::vector<uint64_t> Before;
      for (unsigned I = 0; I != P.workers(); ++I)
        Before.push_back(P.workerStats(I).Connections.load());
      if (!reconnect(C))
        return false;
      for (uint64_t T0 = nowNs(); nowNs() - T0 < 500000000ull;) {
        unsigned Got = P.workers();
        for (unsigned I = 0; I != P.workers(); ++I)
          if (P.workerStats(I).Connections.load() != Before[I])
            Got = I;
        if (Got == Worker)
          return true;
        if (Got != P.workers())
          break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      C.close();
    }
    return reconnect(C);
  }

  /// Keep-alive connections, made before the generator threads start:
  /// connections 2k and 2k+1 go to worker k mod 2, and with two threads
  /// thread t drives connections t and t+2, one on each worker.
  std::vector<std::unique_ptr<Conn>> KConns;

  void keepAliveThread(unsigned T) {
    pinToNthCpu(2 + T);
    ::prctl(PR_SET_TIMERSLACK, 1000UL);
    GenThread &Me = G[T];
    std::vector<std::unique_ptr<Conn>> Conns;
    for (unsigned C = T; C < Sp.Conns; C += Sp.Threads)
      Conns.push_back(std::move(KConns[C]));
    // Warm-up: sequential round trips until every document is cached.
    for (auto &C : Conns)
      for (unsigned K = 0; K != WarmPerConn; ++K) {
        Resp R;
        uint32_t Doc = K < Sp.Docs ? K : (*C->Order)[K % C->Order->size()];
        St.SentRequests.fetch_add(1, std::memory_order_relaxed);
        if (C->Fd < 0 || !sendAll(C->Fd, request(Doc, 0)) || !C->readOne(R) ||
            !check(R, C->Buf.data() + R.HeadLen, Doc)) {
          noteFailure(Me, "warm-up response for " + In.Paths[Doc]);
          reconnect(*C);
          continue;
        }
        C->consume(R);
      }
    Warm.fetch_add(1);
    while (Ph.load() == PhaseWarm)
      std::this_thread::sleep_for(std::chrono::microseconds(100));

    const bool Open = Sp.RateRps > 0;
    const uint64_t IntervalNs =
        Open ? static_cast<uint64_t>(1e9 * Sp.Conns / Sp.RateRps) : 0;
    unsigned Idx = 0;
    for (auto &C : Conns)
      C->NextDue = StartNs + IntervalNs * (T + Sp.Threads * Idx++) / Sp.Conns;
    std::vector<pollfd> Fds(Conns.size());
    uint64_t StopAt = 0;
    while (true) {
      bool Stopping = Ph.load(std::memory_order_relaxed) == PhaseStop;
      if (Stopping) {
        // Drain: no new requests; collect what is in flight.
        bool AnyBusy = false;
        for (auto &C : Conns)
          AnyBusy |= C->Busy;
        if (!StopAt)
          StopAt = nowNs();
        if (!AnyBusy || nowNs() - StopAt > 2000000000ull)
          break;
      }
      uint64_t Now = nowNs();
      int TimeoutMs = 20;
      for (auto &C : Conns) {
        if (C->Busy || Stopping || C->Fd < 0)
          continue;
        if (!Open) {
          if (!send(*C, 0)) {
            noteFailure(Me, "send failed");
            reconnect(*C);
          }
        } else if (Now >= C->NextDue) {
          if (!send(*C, C->NextDue)) {
            noteFailure(Me, "send failed");
            reconnect(*C);
          }
          C->NextDue += IntervalNs;
        } else {
          TimeoutMs = 0; // spin to the due time
        }
      }
      for (size_t I = 0; I != Conns.size(); ++I)
        Fds[I] = {Conns[I]->Fd, POLLIN, 0};
      int N = ::poll(Fds.data(), Fds.size(), TimeoutMs);
      if (N <= 0)
        continue;
      for (size_t I = 0; I != Conns.size(); ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLERR | POLLHUP)))
          continue;
        Conn &C = *Conns[I];
        Resp R;
        int P = C.pump(R);
        if (P == 0)
          continue;
        uint64_t Done = nowNs();
        if (P < 0 || !C.Busy) {
          noteFailure(Me, "transport failure on keep-alive connection");
          reconnect(C);
          continue;
        }
        C.Busy = false;
        bool Ok = check(R, C.Buf.data() + R.HeadLen, C.Doc);
        C.consume(R);
        if (Stopping)
          continue;
        if (!Ok) {
          noteFailure(Me, "wrong response for " + In.Paths[C.Doc]);
          continue;
        }
        record(Me, C.DueNs, Done);
        if (Open)
          Me.Late.add(C.SendNs - C.DueNs);
        if (C.Id)
          Me.Spans.push_back(
              {C.Id,
               static_cast<uint32_t>(std::min<uint64_t>(Done - C.SendNs,
                                                        UINT32_MAX)),
               C.SendNs, false});
      }
    }
  }

  // -- one-shot --------------------------------------------------------------

  /// One HTTP/1.0 exchange on a fresh connection (\p C only lends its
  /// receive buffer).
  bool fetchOnce(Conn &C, uint32_t Doc, uint32_t Id, uint64_t &SendNs,
                 uint64_t &DoneNs) {
    C.close();
    SendNs = nowNs();
    C.Fd = connectLoopback(St.Pool->port());
    if (C.Fd < 0)
      return false;
    St.SentConnects.fetch_add(1, std::memory_order_relaxed);
    St.SentRequests.fetch_add(1, std::memory_order_relaxed);
    Resp R;
    if (!sendAll(C.Fd, request(Doc, Id)) || !C.readOne(R))
      return false;
    DoneNs = nowNs();
    // The whole response is in: close with a reset, so neither side
    // keeps a TIME_WAIT entry and back-to-back runs start from the same
    // kernel state (and never exhaust the ephemeral port range).
    linger Lg{1, 0};
    ::setsockopt(C.Fd, SOL_SOCKET, SO_LINGER, &Lg, sizeof(Lg));
    bool Ok = check(R, C.Buf.data() + R.HeadLen, Doc);
    C.close();
    return Ok;
  }

  void oneShotThread(unsigned T) {
    pinToNthCpu(2 + T);
    GenThread &Me = G[T];
    Conn C;
    uint64_t SendNs, DoneNs;
    for (uint32_t D = T; D < Sp.Docs; D += Sp.Threads)
      if (!fetchOnce(C, D, 0, SendNs, DoneNs))
        noteFailure(Me, "warm-up response for " + In.Paths[D]);
    Warm.fetch_add(1);
    while (Ph.load() == PhaseWarm)
      std::this_thread::sleep_for(std::chrono::microseconds(100));

    const uint32_t N = Sp.Docs;
    while (Ph.load(std::memory_order_relaxed) == PhaseGo) {
      uint32_t MyGen = Pass.Gen.load(std::memory_order_acquire);
      uint32_t I = Pass.Next.fetch_add(1, std::memory_order_relaxed);
      if (I < N) {
        uint32_t Doc = Pass.Order[I];
        uint32_t Id = Tracing.load(std::memory_order_relaxed)
                          ? NextId.fetch_add(1, std::memory_order_relaxed)
                          : 0;
        if (!fetchOnce(C, Doc, Id, SendNs, DoneNs)) {
          noteFailure(Me, "wrong one-shot response for " + In.Paths[Doc]);
          continue;
        }
        record(Me, SendNs, DoneNs);
        if (Id)
          Me.Spans.push_back(
              {Id,
               static_cast<uint32_t>(std::min<uint64_t>(DoneNs - SendNs,
                                                        UINT32_MAX)),
               SendNs, true});
        continue;
      }
      if (Pass.Finished.fetch_add(1) + 1 == Sp.Threads) {
        // Last one out: every document was a first touch, so the cache
        // must hold exactly the document count.
        size_t Entries = cacheEntries(St.App);
        Pass.LastEntries.store(Entries);
        if (Entries != N)
          Pass.BadPasses.fetch_add(1);
        Pass.PassesDone.fetch_add(1);
        resetCache(St.App);
        Pass.Order = passOrder(In, ++Pass.Pass);
        Pass.Finished.store(0);
        Pass.Next.store(0);
        Pass.Gen.fetch_add(1, std::memory_order_release);
      } else {
        while (Pass.Gen.load(std::memory_order_acquire) == MyGen &&
               Ph.load(std::memory_order_relaxed) == PhaseGo)
          std::this_thread::yield();
      }
    }
  }

  void start() {
    if (!Sp.KeepAlive)
      Pass.Order = passOrder(In, 0);
    for (unsigned C = 0; Sp.KeepAlive && C != Sp.Conns; ++C) {
      KConns.push_back(std::make_unique<Conn>());
      KConns.back()->Order = &In.Orders[C];
      connectTo(*KConns.back(), (C / 2) % Workers);
    }
    for (unsigned T = 0; T != Sp.Threads; ++T)
      G[T].T = std::thread([this, T] {
        if (Sp.KeepAlive)
          keepAliveThread(T);
        else
          oneShotThread(T);
      });
  }

  void waitWarm() {
    while (Warm.load() != Sp.Threads)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (!Sp.KeepAlive)
      resetCache(St.App);
  }

  /// Starts the measured interval: windows of \p Seconds / windows
  /// each, from 1 ms after now.
  void go(double Seconds) {
    StartNs = nowNs() + 1000000;
    WinNs = static_cast<uint64_t>(Seconds * 1e9 / G[0].Win.size());
    Ph.store(PhaseGo);
  }

  void stop() {
    Ph.store(PhaseStop);
    for (GenThread &T : G)
      if (T.T.joinable())
        T.T.join();
  }

  double generatorCpuS() {
    double S = 0;
    for (GenThread &T : G)
      if (T.T.joinable())
        S += threadCpuS(T.T.native_handle());
    return S;
  }

  uint64_t failed() const {
    uint64_t F = 0;
    for (const GenThread &T : G)
      F += T.Failed;
    return F;
  }

  std::string firstFailure() const {
    for (const GenThread &T : G)
      if (T.Failed)
        return T.FirstFailure;
    return "";
  }
};

// --- The operator ----------------------------------------------------------

struct UpdateSpan {
  uint64_t SubmitNs;
  uint64_t CommitNs;
  bool Rolling;
};

/// Submits updates one at a time and waits for each to become visible.
struct Operator {
  Stack &St;
  const Inputs &In;
  unsigned Steps = 0;
  uint32_t BumpFrom = 1;
  uint64_t Attempted = 0, Failed = 0, Bumps = 0;
  std::string FirstFailure;
  std::vector<double> PostMs;
  std::vector<UpdateSpan> Spans;
  /// Runs after every step (the traced run snapshots the recorder).
  std::function<void()> AfterStep;

  Operator(Stack &St, const Inputs &In) : St(St), In(In) {}

  void noteFailure(const std::string &Why) {
    if (Failed++ == 0)
      FirstFailure = Why;
  }

  bool postArtifact(const std::string &Text) {
    Conn C;
    uint64_t T0 = nowNs();
    C.Fd = connectLoopback(St.Pool->port());
    if (C.Fd < 0)
      return false;
    St.SentConnects.fetch_add(1, std::memory_order_relaxed);
    St.SentRequests.fetch_add(1, std::memory_order_relaxed);
    std::string Req = "POST /admin/patches HTTP/1.1\r\nHost: bench\r\n"
                      "Content-Type: text/plain\r\nConnection: close\r\n"
                      "Content-Length: " +
                      std::to_string(Text.size()) + "\r\n\r\n" + Text;
    Resp R;
    if (!sendAll(C.Fd, Req) || !C.readOne(R) || R.Status != 202)
      return false;
    PostMs.push_back((nowNs() - T0) / 1e6);
    return true;
  }

  /// Step K of the alternating schedule: even steps POST a VTAL artifact
  /// (the two shipped ones in turn), odd steps request a barrier bump.
  void step() {
    unsigned K = Steps++;
    bool Vtal = K % 2 == 0;
    unsigned Before = St.RT.updatesApplied();
    ++Attempted;
    uint64_t T0;
    if (Vtal) {
      const std::string &Text = In.Artifacts[(In.FirstArtifact + K / 2) % 2];
      T0 = nowNs();
      if (!postArtifact(Text)) {
        noteFailure("POST /admin/patches was not accepted");
        return;
      }
    } else {
      Expected<Patch> P = makeIdentityBumpPatch(
          St.RT.types(), VersionedName{"bench_counter", BumpFrom},
          St.RT.types().intType());
      if (!P) {
        noteFailure("identity bump: " + P.takeError().str());
        return;
      }
      ++BumpFrom;
      ++Bumps;
      T0 = nowNs();
      St.RT.requestUpdate(std::move(*P));
      St.Pool->wake();
    }
    if (!awaitCommit(Before, T0)) {
      noteFailure("update did not commit within 5 s");
      return;
    }
    uint64_t T1 = nowNs();
    Spans.push_back({T0, T1, Vtal});
    if (AfterStep)
      AfterStep();
  }

  /// Setup commits: both VTAL artifacts, parse fix first.
  bool commitBothArtifacts() {
    for (const std::string &Text : In.Artifacts) {
      unsigned Before = St.RT.updatesApplied();
      if (!postArtifact(Text) || !awaitCommit(Before, nowNs()))
        return false;
    }
    PostMs.clear();
    return true;
  }

  /// Spins until updatesApplied() passes \p Before; false after 5 s.
  bool awaitCommit(unsigned Before, uint64_t T0) {
    while (St.RT.updatesApplied() == Before) {
      if (nowNs() - T0 > 5000000000ull)
        return false;
      sched_yield();
    }
    return true;
  }
};

/// GET /doc1.html?x=1 on a fresh connection: 200 once the parse fix is
/// live, 404 under v1's query-string defect.
int probe(Stack &St) {
  Conn C;
  C.Fd = connectLoopback(St.Pool->port());
  if (C.Fd < 0)
    return -1;
  St.SentConnects.fetch_add(1);
  St.SentRequests.fetch_add(1);
  Resp R;
  if (!sendAll(C.Fd, "GET /doc1.html?x=1 HTTP/1.0\r\nHost: bench\r\n\r\n") ||
      !C.readOne(R))
    return -1;
  return R.Status;
}

// --- Measurement windows -------------------------------------------------

/// CPU accounting sampled at each window boundary.
struct Windows {
  std::vector<uint64_t> AtNs;
  std::vector<double> ProcCpuS, GenCpuS;

  void sample(Load &L) {
    AtNs.push_back(nowNs());
    ProcCpuS.push_back(processCpuS());
    GenCpuS.push_back(L.generatorCpuS());
  }
};

struct WindowStats {
  std::vector<double> Rps, P50Us, P99Us, ServerCpuUs, GenCpuUs;
  uint64_t Samples = 0;
};

/// Per-window figures of windows [From, To).
WindowStats windowStats(Load &L, const Windows &W, size_t From, size_t To) {
  WindowStats S;
  for (size_t I = From; I < To && I + 1 < W.ProcCpuS.size(); ++I) {
    Hist H;
    for (GenThread &T : L.G)
      H.merge(T.Win[I]);
    if (!H.N)
      continue;
    S.Samples += H.N;
    S.Rps.push_back(H.N / ((W.AtNs[I + 1] - W.AtNs[I]) / 1e9));
    S.P50Us.push_back(H.quantile(0.5) / 1e3);
    S.P99Us.push_back(H.quantile(0.99) / 1e3);
    double Gen = W.GenCpuS[I + 1] - W.GenCpuS[I];
    double Proc = W.ProcCpuS[I + 1] - W.ProcCpuS[I];
    S.ServerCpuUs.push_back((Proc - Gen) * 1e6 / H.N);
    S.GenCpuUs.push_back(Gen * 1e6 / H.N);
  }
  return S;
}

/// Runs the measured interval: CPU samples at every window boundary,
/// plus the operator's schedule on update_churn.  \p OnBoundary runs
/// after each sample.
template <typename Fn>
void runWindows(Load &L, Windows &W, Operator *Op, unsigned NumWindows,
                Fn &&OnBoundary) {
  uint64_t PeriodNs = static_cast<uint64_t>(ChurnPeriodMs * 1e6);
  for (unsigned I = 0; I <= NumWindows; ++I) {
    uint64_t Boundary = L.StartNs + L.WinNs * I;
    while (true) {
      uint64_t Now = nowNs();
      if (Now >= Boundary)
        break;
      if (Op && I > 0) {
        uint64_t K = Op->Steps;
        uint64_t Due = L.StartNs + K * PeriodNs +
                       Op->In.JitterUs[K % Op->In.JitterUs.size()] * 1000ull;
        if (Now >= Due) {
          Op->step();
          continue;
        }
        uint64_t Wake = std::min(Due, Boundary);
        if (Wake - Now > 200000)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(Wake - Now - 100000));
        continue;
      }
      uint64_t Left = Boundary - Now;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          Left > 2000000 ? Left - 1000000 : Left / 2 + 1));
    }
    W.sample(L);
    OnBoundary(I);
  }
}

double peakRssMb() {
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::atof(Line + 6);
  std::fclose(F);
  return Kb / 1024.0;
}

/// run_time and wait_time (ns) of thread \p Tid.
std::pair<uint64_t, uint64_t> schedstat(pid_t Tid) {
  std::string P = "/proc/self/task/" + std::to_string(Tid) + "/schedstat";
  FILE *F = std::fopen(P.c_str(), "r");
  unsigned long long Run = 0, Wait = 0;
  if (F) {
    if (std::fscanf(F, "%llu %llu", &Run, &Wait) != 2)
      Run = Wait = 0;
    std::fclose(F);
  }
  return {Run, Wait};
}

struct PoolTotals {
  uint64_t Requests = 0, Connections = 0, Pauses = 0, PauseUs = 0,
           PauseMaxUs = 0, Rounds = 0;
};

PoolTotals poolTotals(net::ReactorPool &P) {
  PoolTotals T;
  for (unsigned I = 0; I != P.workers(); ++I) {
    const net::WorkerStats &W = P.workerStats(I);
    T.Requests += W.Requests.load();
    T.Connections += W.Connections.load();
    T.Pauses += W.Pauses.load();
    T.PauseUs += W.PauseTotalUs.load();
    T.PauseMaxUs = std::max<uint64_t>(T.PauseMaxUs, W.PauseMaxUs.load());
  }
  T.Rounds = P.barrierRounds();
  return T;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Note;
  bool InResult; ///< false: printed in the table only
};

void printResult(const std::vector<Metric> &Ms, bool Correct,
                 uint64_t Attempted, uint64_t Failed) {
  for (const Metric &M : Ms)
    std::printf("  %-34s %16.6f %-9s %s\n", M.Name.c_str(), M.Value, M.Unit,
                M.Note.c_str());
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted) +
       ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Ms) {
    if (!M.InResult)
      continue;
    char V[64];
    std::snprintf(V, sizeof(V), "%.17g", std::isfinite(M.Value) ? M.Value : 0);
    J += std::string(First ? "" : ", ") + "\"" + M.Name + "\": {\"value\": " + V +
         ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Writes the traced run's spans as Chrome trace-event JSON (at most the
/// first \p Cap requests, plus every update).
void writeSpans(const std::string &Path, Load &L, HandlerLogs &Logs,
                const Operator &Op, size_t Cap) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  std::fprintf(F, "{\"traceEvents\":[\n");
  bool First = true;
  auto Emit = [&](const char *Name, uint64_t StartNs, uint64_t DurNs,
                  unsigned Tid, uint64_t Id) {
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 First ? "" : ",\n", Name, Tid, StartNs / 1e3, DurNs / 1e3,
                 static_cast<unsigned long long>(Id));
    First = false;
  };
  for (unsigned T = 0; T != MaxGenThreads; ++T)
    for (const ClientSpan &S : L.G[T].Spans)
      if (S.Id <= Cap)
        Emit("request", S.SendNs, S.DurNs, 10 + T, S.Id);
  for (const auto &HL : Logs.Logs)
    for (const HandlerLog::Span &S : HL->Spans)
      if (S.Id <= Cap)
        Emit("handleInto", S.StartNs, S.DurNs, static_cast<unsigned>(HL->Tid),
             S.Id);
  uint64_t UpdateId = 1;
  for (const UpdateSpan &S : Op.Spans)
    Emit(S.Rolling ? "update.rolling" : "update.barrier", S.SubmitNs,
         S.CommitNs - S.SubmitNs, 1, UpdateId++);
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

struct Args {
  std::string Workload, WorkDir = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: flashbench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n");
  return 2;
}

/// ns per call of \p Fn over \p N sample items: median of 9 rounds.
template <typename Fn> double nsPerCall(size_t N, Fn &&F) {
  std::vector<double> Rounds;
  for (unsigned R = 0; R != 9; ++R) {
    uint64_t T0 = nowNs();
    for (size_t I = 0; I != N; ++I)
      F(I);
    Rounds.push_back(static_cast<double>(nowNs() - T0) / N);
  }
  return median(Rounds);
}

/// A benchmark-owned interpreter over one shipped artifact's module.
struct OwnInterp {
  std::unique_ptr<vtal::Module> M;
  std::unique_ptr<vtal::Interpreter> I;
  uint32_t Fn = 0;

  bool load(const std::string &Artifact, const char *FnName) {
    Expected<PatchManifest> Man = PatchManifest::parse(Artifact);
    if (!Man)
      return false;
    Expected<vtal::Module> Mod = vtal::assemble(Man->VtalText);
    if (!Mod)
      return false;
    M = std::make_unique<vtal::Module>(std::move(*Mod));
    I = std::make_unique<vtal::Interpreter>(*M);
    Expected<uint32_t> Idx = I->functionIndex(FnName);
    if (!Idx)
      return false;
    Fn = *Idx;
    return true;
  }

  uint64_t fuel(const std::string &Arg) {
    Expected<vtal::Value> V = I->callIndex(Fn, {vtal::Value::makeStr(Arg)});
    return V ? I->lastFuelUsed() : 0;
  }
};

/// VTAL-backed bindings carry a trap counter; built-in ones cannot trap
/// and leave it null (runtime/Binding.h).
bool isVtal(const UpdateableSlot *S) { return S->current()->Traps != nullptr; }

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else
      return usage();
  }
  const Spec *SpP = nullptr;
  for (const Spec &S : Specs)
    if (A.Workload == S.Name)
      SpP = &S;
  if (!SpP || A.Seconds <= 0)
    return usage();
  const Spec &Sp = *SpP;
  setLogLevel(LL_Warning);

  Inputs In = makeInputs(Sp, A.Seed);
  if (In.Artifacts[1].empty()) {
    std::fprintf(stderr, "flashbench: examples/mime_svg.dsup not readable\n");
    return 1;
  }
  std::filesystem::create_directories(A.WorkDir);
  std::string JournalDir = A.WorkDir + "/journal-" + Sp.Name + "-" +
                           std::to_string(::getpid());

  // Half-second windows; the reported figures are medians over them.
  unsigned NumWindows = std::max(4u, static_cast<unsigned>(
                                         std::lround(A.Seconds * 2)));

  // -- Set up (several times; the last stack is measured) -----------------
  HandlerLogs Logs;
  std::vector<double> SetupS;
  std::unique_ptr<Stack> St;
  std::unique_ptr<Load> L;
  std::unique_ptr<Operator> Op;
  unsigned Repeats = A.Trace ? 1 : SetupRepeats;
  for (unsigned R = 0; R != Repeats; ++R) {
    if (L) {
      L->stop();
      L.reset();
      Op.reset();
      St.reset();
    }
    uint64_t T0 = nowNs();
    St = std::make_unique<Stack>();
    std::string Err =
        buildStack(*St, In, JournalDir, A.Trace ? &Logs : nullptr);
    if (!Err.empty()) {
      std::fprintf(stderr, "flashbench: setup: %s\n", Err.c_str());
      return 1;
    }
    Op = std::make_unique<Operator>(*St, In);
    if (Sp.VtalSetup && !Op->commitBothArtifacts()) {
      std::fprintf(stderr, "flashbench: setup: VTAL artifacts did not commit\n");
      return 1;
    }
    L = std::make_unique<Load>(Sp, In, *St, NumWindows);
    L->SvgPatched = Sp.VtalSetup;
    L->start();
    L->waitWarm();
    SetupS.push_back((nowNs() - T0) / 1e9);
  }

  Stack &S = *St;
  uint64_t LogBase = S.RT.updateLog().size();
  std::vector<std::string> Failures;
  uint64_t CheckFailures = 0;
  auto checkFailed = [&](const std::string &Why) {
    ++CheckFailures;
    Failures.push_back(Why);
  };

  // Traced-run ledger state, sampled at the traced window's edges.
  struct Edge {
    PoolTotals Pool;
    std::vector<std::pair<uint64_t, uint64_t>> Sched;
    uint64_t NativeEntries = 0, Deopts = 0, Epoch = 0, Rolling = 0;
    size_t LogSize = 0, Posts = 0, Updates = 0;
    uint64_t Serial = 0;
  } E0, E1;
  auto edge = [&](Edge &E) {
    E.Pool = poolTotals(*S.Pool);
    std::lock_guard<std::mutex> G(Logs.Mu);
    for (const auto &HL : Logs.Logs)
      E.Sched.push_back(schedstat(HL->Tid));
    auto &NS = vtal::native::NativeStats::instance();
    E.NativeEntries = NS.NativeEntries.load();
    E.Deopts = NS.Deopts.load();
    E.Epoch = epoch::domain().globalEpoch();
    E.Rolling = S.RT.rollingCommits();
    E.LogSize = S.RT.updateLog().size();
    E.Posts = Op->PostMs.size();
    E.Updates = Op->Spans.size();
  };
  // Flight-recorder events, deduplicated by serial across snapshots.
  std::map<uint64_t, trace::EventCopy> Recorded;
  auto snapshotRecorder = [&] {
    for (const trace::EventCopy &Ev : trace::Recorder::instance().snapshot())
      Recorded.emplace(Ev.Serial, Ev);
    return Recorded.empty() ? 0 : Recorded.rbegin()->first;
  };

  Windows W;
  L->go(A.Seconds);
  Operator *Churn = Sp.Churn ? Op.get() : nullptr;
  uint64_t PoolBefore = poolTotals(*S.Pool).Rounds;
  unsigned TracedFrom = A.Trace ? NumWindows / 2 : NumWindows + 1;
  runWindows(*L, W, Churn, NumWindows, [&](unsigned I) {
    if (I != TracedFrom)
      return;
    edge(E0);
    E0.Serial = snapshotRecorder();
    Logs.Tracing = true;
    L->Tracing = true;
    // Each update records a few dozen events at most on any one thread;
    // snapshotting every 8 keeps every ring from wrapping in between.
    Op->AfterStep = [&] {
      if (Op->Steps % 8 == 0)
        snapshotRecorder();
    };
  });
  if (A.Trace) {
    Logs.Tracing = false;
    L->Tracing = false;
    edge(E1);
    E1.Serial = snapshotRecorder();
  }
  L->stop();

  // -- Checks common to both modes -----------------------------------------
  uint64_t RoundsInRun = poolTotals(*S.Pool).Rounds - PoolBefore;
  int Probe = probe(S);
  bool ParseFixed = isVtal(S.App.ParseTarget.slot());
  if (Probe != (ParseFixed ? 200 : 404))
    checkFailed("probe GET /doc1.html?x=1 answered " + std::to_string(Probe));
  if (Sp.Churn && RoundsInRun != Op->Bumps)
    checkFailed("barrier rounds " + std::to_string(RoundsInRun) +
                " != identity bumps " + std::to_string(Op->Bumps));

  std::vector<Metric> Ms;
  auto add = [&](const std::string &Name, double V, const char *Unit,
                 std::string Note = "", bool InResult = true) {
    Ms.push_back({Name, V, Unit, std::move(Note), InResult});
  };
  // Update latencies of the operator's steps [From, To).
  struct UpdateLatency {
    std::vector<double> All, Rolling, Barrier;
  };
  auto updateLatency = [&](size_t From, size_t To) {
    UpdateLatency U;
    for (size_t I = From; I < To; ++I) {
      const UpdateSpan &Sp2 = Op->Spans[I];
      double Ms2 = (Sp2.CommitNs - Sp2.SubmitNs) / 1e6;
      U.All.push_back(Ms2);
      (Sp2.Rolling ? U.Rolling : U.Barrier).push_back(Ms2);
    }
    return U;
  };
  std::printf("flashbench %s seed=%llu seconds=%g trace=%d\n", Sp.Name,
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);

  if (!A.Trace) {
    WindowStats WS = windowStats(*L, W, 0, NumWindows);
    std::string N = "(median of " + std::to_string(WS.Rps.size()) +
                    " windows, " + std::to_string(WS.Samples) + " requests)";
    char Spread[96];
    std::snprintf(Spread, sizeof(Spread), " windows %.0f..%.0f",
                  quantile(WS.Rps, 0), quantile(WS.Rps, 1));
    add("throughput_rps", median(WS.Rps), "1/s", N + Spread);
    add("latency_p50_us", median(WS.P50Us), "us", N);
    add("server_cpu_us_per_req", median(WS.ServerCpuUs), "us", N);
    add("peak_rss_mb", peakRssMb(), "MB", "(VmHWM)");
    add("setup_s", median(SetupS), "s",
        "(median of " + std::to_string(SetupS.size()) + " set-ups)");
    // Too unsteady from run to run on a shared host to bound; the
    // per-layer ledger carries them.
    add("latency_p99_us", median(WS.P99Us), "us", N, false);
    if (Sp.Churn) {
      UpdateLatency U = updateLatency(0, Op->Spans.size());
      std::string UN = "(" + std::to_string(U.All.size()) + " updates)";
      add("update_rolling_p50_ms", quantile(U.Rolling, 0.5), "ms", UN, false);
      add("update_barrier_p50_ms", quantile(U.Barrier, 0.5), "ms", UN, false);
      add("update_latency_p99_ms", quantile(U.All, 0.99), "ms", UN, false);
    }
  } else {
    // -- The per-layer ledger: traffic, then replays after it stopped ------
    WindowStats Untraced = windowStats(*L, W, 0, TracedFrom);
    WindowStats Traced = windowStats(*L, W, TracedFrom, NumWindows);
    uint64_t Reqs = E1.Pool.Requests - E0.Pool.Requests;
    double PerReq = Reqs ? 1.0 / Reqs : 0;

    // Client spans joined with handler spans by request id.
    std::vector<uint32_t> HandlerNs;
    {
      uint32_t MaxId = L->NextId.load();
      HandlerNs.assign(MaxId + 1, 0);
      for (const auto &HL : Logs.Logs)
        for (const HandlerLog::Span &Sp2 : HL->Spans)
          if (Sp2.Id <= MaxId)
            HandlerNs[Sp2.Id] = Sp2.DurNs;
    }
    std::vector<double> Outside, HandlerUs, HitUs, MissUs;
    for (GenThread &T : L->G)
      for (const ClientSpan &C : T.Spans) {
        if (C.Id >= HandlerNs.size() || !HandlerNs[C.Id])
          continue;
        double H = HandlerNs[C.Id] / 1e3;
        Outside.push_back(C.DurNs / 1e3 - H);
        (C.Miss ? MissUs : HitUs).push_back(H);
      }
    for (const auto &HL : Logs.Logs)
      for (const HandlerLog::Span &Sp2 : HL->Spans)
        HandlerUs.push_back(Sp2.DurNs / 1e3);

    double WorkerRun = 0, WorkerWait = 0;
    for (size_t I = 0; I < E0.Sched.size() && I < E1.Sched.size(); ++I) {
      WorkerRun += E1.Sched[I].first - E0.Sched[I].first;
      WorkerWait += E1.Sched[I].second - E0.Sched[I].second;
    }
    uint64_t Pauses = E1.Pool.Pauses - E0.Pool.Pauses;
    uint64_t PauseUs = E1.Pool.PauseUs - E0.Pool.PauseUs;

    add("latency_p99_us", median(Untraced.P99Us), "us", "(untraced half)");
    add("net.outside_handler_us_p50", quantile(Outside, 0.5), "us");
    add("net.worker_cpu_us_per_req", WorkerRun / 1e3 * PerReq, "us");
    add("net.worker_runq_wait_us_per_req", WorkerWait / 1e3 * PerReq, "us");
    add("net.requests", static_cast<double>(Reqs), "count");
    add("net.connections",
        static_cast<double>(E1.Pool.Connections - E0.Pool.Connections),
        "count");
    add("net.park_us_mean", Pauses ? static_cast<double>(PauseUs) / Pauses : 0,
        "us");
    add("net.park_us_max", static_cast<double>(E1.Pool.PauseMaxUs), "us");
    add("net.barrier_rounds", static_cast<double>(E1.Pool.Rounds - E0.Pool.Rounds),
        "count");
    add("flashed.handler_us_p50", quantile(HandlerUs, 0.5), "us");
    add("flashed.handler_us_p99", quantile(HandlerUs, 0.99), "us");
    add("flashed.handler_miss_us_p50", quantile(MissUs, 0.5), "us");
    add("flashed.handler_hit_us_p50", quantile(HitUs, 0.5), "us");
    size_t Entries =
        Sp.KeepAlive ? cacheEntries(S.App) : L->Pass.LastEntries.load();
    add("flashed.cache_entries", static_cast<double>(Entries), "count");

    // Replays of a seeded sample of the run's own requests.
    Rng Pick(A.Seed, StreamReplay);
    std::vector<std::string> Raw, Paths, Types;
    for (size_t I = 0; I != ReplaySample; ++I) {
      uint32_t Doc = Sp.KeepAlive ? In.Orders[0][Pick.below(OrderLen)]
                                  : static_cast<uint32_t>(Pick.below(Sp.Docs));
      Raw.push_back(In.Requests[Doc]);
      Paths.push_back(In.Paths[Doc]);
      Types.push_back(expectedType(In.Paths[Doc], L->SvgPatched));
    }
    FlashedApp &App = S.App;
    std::string Out;
    add("flashed.scan_head_ns", nsPerCall(ReplaySample, [&](size_t I) {
          keep(scanRequestHead(Raw[I]).HeadBytes);
        }), "ns");
    add("flashed.response_head_ns", nsPerCall(ReplaySample, [&](size_t I) {
          Out.clear();
          appendHttpResponseHead(Out, 200, Types[I], DocBytes, true);
          keep(Out.size());
        }), "ns");
    add("flashed.docstore_get_ns", nsPerCall(ReplaySample, [&](size_t I) {
          SharedBody B = App.docs().getShared(Paths[I]);
          keep(B.get());
        }), "ns");
    double ParseH = nsPerCall(ReplaySample, [&](size_t I) {
      keep(App.ParseTarget(std::string(Raw[I])).size());
    });
    double ParseD = nsPerCall(ReplaySample, [&](size_t I) {
      keep(FlashedApp::parseTargetV1(std::string(Raw[I])).size());
    });
    double MapH = nsPerCall(ReplaySample, [&](size_t I) {
      keep(App.MapUrl(Paths[I]).size());
    });
    double MapD = nsPerCall(ReplaySample, [&](size_t I) {
      keep(FlashedApp::mapUrlV1(Paths[I]).size());
    });
    double MimeH = nsPerCall(ReplaySample, [&](size_t I) {
      keep(App.MimeType(Paths[I]).size());
    });
    double MimeD = nsPerCall(ReplaySample, [&](size_t I) {
      keep(FlashedApp::mimeTypeV1(Paths[I]).size());
    });
    double LogH = nsPerCall(ReplaySample,
                            [&](size_t I) { App.LogAccess(Paths[I], 200); });
    double LogD = nsPerCall(ReplaySample, [&](size_t I) {
      FlashedApp::logAccessV1(Paths[I], 200);
    });
    add("runtime.stage_ns.parse_target", ParseH, "ns");
    add("runtime.stage_ns.map_url", MapH, "ns");
    add("runtime.stage_ns.mime_type", MimeH, "ns");
    add("runtime.stage_ns.log_access", LogH, "ns");
    bool ParseVtal = isVtal(App.ParseTarget.slot());
    bool MimeVtal = isVtal(App.MimeType.slot());
    double Indirection = (MapH - MapD) + (LogH - LogD) +
                         (ParseVtal ? 0 : ParseH - ParseD) +
                         (MimeVtal ? 0 : MimeH - MimeD);
    add("runtime.indirection_ns", Indirection, "ns");

    double ExecParse = 0, ExecMime = 0, Fuel = 0;
    OwnInterp PI, MI;
    if (ParseVtal) {
      if (!PI.load(In.Artifacts[0], "parse_target"))
        checkFailed("benchmark interpreter: parse_target module");
      else {
        ExecParse = nsPerCall(ReplaySample, [&](size_t I) {
          keep(PI.fuel(Raw[I]));
        });
        for (size_t I = 0; I != ReplaySample; ++I)
          Fuel += static_cast<double>(PI.fuel(Raw[I])) / ReplaySample;
      }
    }
    if (MimeVtal) {
      if (!MI.load(In.Artifacts[1], "mime_type"))
        checkFailed("benchmark interpreter: mime_type module");
      else {
        ExecMime = nsPerCall(ReplaySample, [&](size_t I) {
          keep(MI.fuel(Paths[I]));
        });
        for (size_t I = 0; I != ReplaySample; ++I)
          Fuel += static_cast<double>(MI.fuel(Paths[I])) / ReplaySample;
      }
    }
    add("vtal.exec_ns.parse_target", ExecParse, "ns");
    add("vtal.exec_ns.mime_type", ExecMime, "ns");
    add("patch.vtal_boundary_ns",
        (ParseVtal ? ParseH - ExecParse : 0) + (MimeVtal ? MimeH - ExecMime : 0),
        "ns");
    add("vtal.fuel_per_req", Fuel, "fuel/req");
    add("vtal.native_entries_per_req",
        (E1.NativeEntries - E0.NativeEntries) * PerReq, "count/req");
    add("vtal.deopts_per_req", (E1.Deopts - E0.Deopts) * PerReq, "count/req");

    add("epoch.advances", static_cast<double>(E1.Epoch - E0.Epoch), "count");
    add("loadgen.cpu_us_per_req", median(Traced.GenCpuUs), "us");
    Hist Late;
    for (GenThread &T : L->G)
      Late.merge(T.Late);
    add("loadgen.late_us_p99", Late.quantile(0.99) / 1e3, "us");
    double RpsU = median(Untraced.Rps), RpsT = median(Traced.Rps);
    add("bench.trace_overhead_pct", RpsU > 0 ? (RpsU - RpsT) / RpsU * 100 : 0,
        "%");

    // Layer-isolation checks: a workload that stops exercising its layer
    // fails loudly.
    if (!std::strcmp(Sp.Name, "keepalive_hot")) {
      if (Fuel != 0 || E1.NativeEntries != E0.NativeEntries ||
          E1.Pool.Rounds != E0.Pool.Rounds || RoundsInRun != 0)
        checkFailed("isolation: keepalive_hot ran VTAL code or a barrier");
    } else if (!std::strcmp(Sp.Name, "keepalive_vtal")) {
      if (!(Fuel > 0))
        checkFailed("isolation: keepalive_vtal executed no VTAL fuel");
    } else if (!std::strcmp(Sp.Name, "oneshot_cold")) {
      if (L->Pass.PassesDone.load() == 0 || L->Pass.BadPasses.load() != 0)
        checkFailed("isolation: oneshot_cold misses per pass != documents");
    }

    // -- Then updates: the traced half on update_churn.  The serving
    // workloads run none under traffic; a drill on the idle stack stands
    // in, after the replays so they see the bindings traffic saw.
    Edge UA = E0, UB = E1;
    if (!Sp.Churn) {
      // The operator spins while it waits; keep it off the workers' CPUs.
      pinToNthCpu(3);
      edge(UA);
      UA.Serial = snapshotRecorder();
      for (unsigned K = 0; K != DrillUpdates; ++K)
        Op->step();
      edge(UB);
      UB.Serial = snapshotRecorder();
    }
    UpdateLatency U = updateLatency(UA.Updates, UB.Updates);
    add("update_rolling_p50_ms", quantile(U.Rolling, 0.5), "ms");
    add("update_barrier_p50_ms", quantile(U.Barrier, 0.5), "ms");
    add("update_latency_p99_ms", quantile(U.All, 0.99), "ms");
    std::vector<UpdateRecord> Log = S.RT.updateLog();
    // The update breakdown: records committed in the ledger's range.
    std::vector<double> Analysis, Verify, Prepare, Build, Stage, S2C,
        CommitRolling, CommitBarrier;
    for (size_t I = UA.LogSize; I < UB.LogSize && I < Log.size(); ++I) {
      const UpdateRecord &R = Log[I];
      if (R.AnalysisRan)
        Analysis.push_back(R.AnalysisMs);
      if (R.CommitMode == "rolling") {
        Verify.push_back(R.VerifyMs);
        CommitRolling.push_back(R.CommitMs);
      } else {
        Build.push_back(R.BuildMs);
        CommitBarrier.push_back(R.CommitMs);
      }
      Prepare.push_back(R.PrepareMs);
      Stage.push_back(R.StageMs);
      S2C.push_back(R.StageToCommitUs / 1e3);
    }
    std::vector<double> PostMs(Op->PostMs.begin() + UA.Posts,
                               Op->PostMs.begin() + UB.Posts);
    add("flashed.admin_post_ms_p50", quantile(PostMs, 0.5), "ms");
    add("analysis.ms_p50", quantile(Analysis, 0.5), "ms");
    add("vtal.verify_ms_p50", quantile(Verify, 0.5), "ms");
    add("link.prepare_ms_p50", quantile(Prepare, 0.5), "ms");
    add("state.build_ms_p50", quantile(Build, 0.5), "ms");
    add("core.stage_ms_p50", quantile(Stage, 0.5), "ms");
    add("core.stage_to_commit_ms_p50", quantile(S2C, 0.5), "ms");
    add("core.stage_to_commit_ms_p99", quantile(S2C, 0.99), "ms");
    add("core.commit_ms_p50.rolling", quantile(CommitRolling, 0.5), "ms");
    add("core.commit_ms_p50.barrier", quantile(CommitBarrier, 0.5), "ms");

    // The journal's own flight-recorder spans from the same range; a gap
    // in the serials would mean a ring wrapped between snapshots.
    std::vector<double> Intent, Seal;
    uint64_t Lost = 0, Prev = E0.Serial;
    for (const auto &KV : Recorded) {
      if (KV.first <= E0.Serial)
        continue;
      Lost += KV.first - Prev - 1;
      Prev = KV.first;
      const trace::EventCopy &Ev = KV.second;
      if (KV.first <= UA.Serial || KV.first > UB.Serial ||
          Ev.Kind != trace::EventKind::Complete ||
          std::strcmp(Ev.Category, "journal") != 0)
        continue;
      if (std::strcmp(Ev.Name, "intent") == 0)
        Intent.push_back(static_cast<double>(Ev.DurUs));
      else if (std::strcmp(Ev.Name, "seal") == 0)
        Seal.push_back(static_cast<double>(Ev.DurUs));
    }
    if (Lost)
      checkFailed("flight recorder lost " + std::to_string(Lost) +
                  " events between snapshots");
    add("persist.intent_us_p50", quantile(Intent, 0.5), "us");
    add("persist.seal_us_p50", quantile(Seal, 0.5), "us");
    add("core.rolling_commits", static_cast<double>(UB.Rolling - UA.Rolling),
        "count");
    std::string SpanFile = A.WorkDir + "/spans-" + Sp.Name + "-seed" +
                           std::to_string(A.Seed) + ".json";
    writeSpans(SpanFile, *L, Logs, *Op, 20000);
    std::printf("spans written to %s\n", SpanFile.c_str());
  }

  // -- Final checks, over everything the run did ------------------------------
  std::vector<UpdateRecord> Log = S.RT.updateLog();
  for (size_t I = LogBase; I < Log.size(); ++I) {
    const UpdateRecord &R = Log[I];
    bool Vtal = R.PatchId == "P1-parse-query-fix-vtal" ||
                R.PatchId == "EX-mime-svg";
    if (!R.Succeeded)
      checkFailed("update " + R.PatchId + " failed: " + R.FailureReason);
    else if (R.CommitMode != (Vtal ? "rolling" : "barrier"))
      checkFailed("update " + R.PatchId + " committed " + R.CommitMode);
  }
  PoolTotals Final = poolTotals(*S.Pool);
  if (Final.Requests != S.SentRequests.load())
    checkFailed("pool served " + std::to_string(Final.Requests) +
                " requests, benchmark sent " +
                std::to_string(S.SentRequests.load()));
  if (Final.Connections != S.SentConnects.load())
    checkFailed("pool accepted " + std::to_string(Final.Connections) +
                " connections, benchmark opened " +
                std::to_string(S.SentConnects.load()));
  uint64_t ReqFailed = L->failed();
  uint64_t ReqDone = 0;
  for (GenThread &T : L->G)
    ReqDone += T.Done;
  uint64_t Attempted = ReqDone + ReqFailed + Op->Attempted + 1;
  uint64_t Failed = ReqFailed + Op->Failed + CheckFailures;
  if (ReqFailed)
    Failures.push_back("requests: " + L->firstFailure());
  if (Op->Failed)
    Failures.push_back("updates: " + Op->FirstFailure);
  // 0 on a correct run, so the untraced result leaves it to the table
  // (and to its own attempted/failed fields).
  add("failed_frac", static_cast<double>(Failed) / Attempted, "1", "",
      A.Trace);

  for (const std::string &F : Failures)
    std::fprintf(stderr, "flashbench: FAILED: %s\n", F.c_str());
  L.reset();
  Op.reset();
  St.reset();
  std::error_code EC;
  std::filesystem::remove_all(JournalDir, EC);
  printResult(Ms, Failed == 0, Attempted, Failed);
  return 0;
}
