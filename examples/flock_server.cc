// flock_server: the prediction-serving layer over TCP.
//
// Speaks the line-delimited text protocol from serve/protocol.h: each
// connection gets a session, each line is one SQL statement (or a '.'
// command), each response is an OK/ERR frame. Admission control sheds
// with `ERR Unavailable ...` under overload, and SIGINT triggers a
// graceful drain (in-flight queries finish, new ones are refused).
//
//   ./flock_server [port] [workers] [queue_depth] [--data-dir=PATH]
//   ./flock_server [port] ... --replica-of=HOST:PORT [--staleness-bound=N]
//   ./flock_server [port] ... --microbatch=8 [--microbatch-wait-ms=1.0]
//   ./flock_server [port] ... --default-deadline-ms=250
//   ./flock_client 127.0.0.1 5433
//
// With --default-deadline-ms every statement runs under a deadline:
// queued past it, the request is shed before a worker touches it;
// running past it, the executor notices at its next poll point and the
// client sees `ERR DeadlineExceeded`. Sessions override per-connection
// with `.deadline <ms>|off|default`, and `.kill <session>` aborts the
// statement another connection has in flight.
//
// With --data-dir the server is durable: it recovers any existing
// snapshot + WAL from PATH on startup (skipping the demo build when the
// data survived), logs every mutation, and the SIGINT drain checkpoints
// before exit so a restart replays nothing. A durable server also
// answers `.repl bootstrap` / `.repl fetch` so replicas can stream its
// WAL.
//
// With --replica-of the server comes up as a read-only replica: it
// bootstraps a snapshot from the primary over the `.repl` endpoint,
// streams WAL records continuously, serves SELECT/EXPLAIN traffic from
// the replicated state, answers writes and DDL with `ERR Redirect`, and
// sheds reads with `ERR Unavailable` whenever replication lag exceeds
// --staleness-bound records (bounded staleness).
//
// With --microbatch=N concurrent single-row PREDICT calls coalesce into
// shared scoring-kernel invocations of up to N rows, waiting at most
// --microbatch-wait-ms (default 1.0) for the batch to fill; a lone
// client bypasses the window entirely (see DESIGN.md §4e).
//
// The demo database is a `users` table with a deployed GBDT `churn`
// model, so PREDICT traffic works out of the box:
//
//   SELECT id, PREDICT(churn, age, income, tenure, clicks, plan)
//   FROM users WHERE PREDICT(churn, age, income, tenure, clicks, plan)
//   > 0.8;

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "flock/flock_engine.h"
#include "lifecycle/rollout.h"
#include "ml/tree.h"
#include "repl/applier.h"
#include "repl/metrics.h"
#include "repl/publisher.h"
#include "repl/wire.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

std::atomic<int> g_listen_fd{-1};

void HandleSigint(int) {
  int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) close(fd);  // unblocks accept(); the main loop drains
}

/// users table + trained churn model, the same shape the serving tests
/// and bench use.
bool BuildDemoDatabase(flock::flock::FlockEngine* engine, size_t rows) {
  auto create = engine->Execute(
      "CREATE TABLE users (id INT, age DOUBLE, income DOUBLE, "
      "tenure DOUBLE, clicks DOUBLE, plan VARCHAR)");
  if (!create.ok()) return false;

  flock::Random rng(7);
  const char* plans[] = {"basic", "plus", "pro"};
  flock::ml::Matrix raw(rows, 5);
  std::vector<double> labels(rows);
  std::string insert = "INSERT INTO users VALUES ";
  for (size_t i = 0; i < rows; ++i) {
    double age = 20 + rng.NextDouble() * 50;
    double income = 30 + rng.NextDouble() * 120;
    double tenure = rng.NextDouble() * 10;
    double clicks = rng.NextDouble() * 100;
    size_t plan = rng.Uniform(3);
    raw.at(i, 0) = age;
    raw.at(i, 1) = income;
    raw.at(i, 2) = tenure;
    raw.at(i, 3) = clicks;
    raw.at(i, 4) = static_cast<double>(plan);
    double z = 0.08 * (age - 45) - 0.02 * (income - 90) - 0.4 * tenure +
               0.03 * clicks + (plan == 0 ? 1.0 : (plan == 2 ? -1.0 : 0.0));
    labels[i] = z > 0 ? 1.0 : 0.0;
    if (i > 0) insert += ", ";
    char row[160];
    std::snprintf(row, sizeof(row), "(%zu, %.3f, %.3f, %.3f, %.3f, '%s')",
                  i, age, income, tenure, clicks, plans[plan]);
    insert += row;
  }
  if (!engine->Execute(insert).ok()) return false;

  flock::ml::Pipeline pipeline;
  std::vector<flock::ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back(
        flock::ml::FeatureSpec{n, flock::ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back(flock::ml::FeatureSpec{
      "plan", flock::ml::FeatureKind::kCategorical,
      {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(flock::ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  flock::ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  flock::ml::GbtOptions gbt;
  gbt.num_trees = 10;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(flock::ml::TrainGradientBoosting(features, gbt));
  return engine->DeployModel("churn", std::move(pipeline), "server-demo",
                             "examples/flock_server").ok();
}

/// ReplicationSource over the `.repl` wire protocol: a socket client
/// against a remote primary flock_server. One persistent connection; any
/// transport failure closes it and surfaces as Unavailable, so the
/// applier's retry-with-backoff policy doubles as the reconnect loop.
class TcpReplicationSource : public flock::repl::ReplicationSource {
 public:
  TcpReplicationSource(std::string host, int port)
      : host_(std::move(host)), port_(port) {}
  ~TcpReplicationSource() override {
    if (fd_ >= 0) close(fd_);
  }

  flock::StatusOr<flock::repl::BootstrapResult> Bootstrap() override {
    auto text = Roundtrip(".repl bootstrap\n");
    if (!text.ok()) return text.status();
    return flock::repl::ParseBootstrapResponse(*text);
  }

  flock::StatusOr<flock::repl::FetchResult> Fetch(
      flock::repl::ReplicationPosition from, size_t max_records) override {
    auto text = Roundtrip(".repl fetch " + std::to_string(from.epoch) +
                          " " + std::to_string(from.lsn) + " " +
                          std::to_string(max_records) + "\n");
    if (!text.ok()) return text.status();
    return flock::repl::ParseFetchResponse(*text);
  }

  flock::StatusOr<flock::repl::ReplicationPosition> DurableEnd() override {
    auto text = Roundtrip(".repl status\n");
    if (!text.ok()) return text.status();
    auto status = flock::repl::ParseStatusResponse(*text);
    if (!status.ok()) return status.status();
    return status->position;
  }

 private:
  flock::Status Connect() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return flock::Status::Unavailable(std::string("socket: ") +
                                        std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      close(fd);
      return flock::Status::InvalidArgument(
          "--replica-of host must be an IPv4 address: " + host_);
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close(fd);
      return flock::Status::Unavailable("connect " + host_ + ":" +
                                        std::to_string(port_) + ": " +
                                        std::strerror(errno));
    }
    fd_ = fd;
    return flock::Status::OK();
  }

  flock::Status Disconnect(const std::string& what) {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    return flock::Status::Unavailable(what + " (" + host_ + ":" +
                                      std::to_string(port_) + ")");
  }

  /// "ERR <CodeName> <message>" back into the Status it came from, so
  /// the applier sees the primary's real error taxonomy (DataLoss is
  /// fatal, Unavailable retries) instead of a flattened transport error.
  static flock::Status DecodeWireError(const std::string& line) {
    using flock::StatusCode;
    std::string rest = line.substr(std::strlen("ERR "));
    size_t space = rest.find(' ');
    std::string name = rest.substr(0, space);
    std::string msg =
        space == std::string::npos ? "" : rest.substr(space + 1);
    for (StatusCode code :
         {StatusCode::kInvalidArgument, StatusCode::kNotFound,
          StatusCode::kAlreadyExists, StatusCode::kNotSupported,
          StatusCode::kInternal, StatusCode::kAborted,
          StatusCode::kOutOfRange, StatusCode::kPermissionDenied,
          StatusCode::kParseError, StatusCode::kUnavailable,
          StatusCode::kDataLoss, StatusCode::kRedirect,
          StatusCode::kCorruption, StatusCode::kDeadlineExceeded,
          StatusCode::kCancelled}) {
      if (name == flock::StatusCodeName(code)) {
        return flock::Status(code, msg);
      }
    }
    return flock::Status::Internal("unparseable wire error: " + line);
  }

  /// Sends one request line, reads one complete response (through the
  /// END terminator, or a single ERR line).
  flock::StatusOr<std::string> Roundtrip(const std::string& request) {
    if (fd_ < 0) {
      flock::Status connected = Connect();
      if (!connected.ok()) return connected;
    }
    if (write(fd_, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size())) {
      return Disconnect("write to primary failed");
    }
    std::string buffer;
    char chunk[4096];
    while (true) {
      if (buffer.rfind("ERR ", 0) == 0) {
        size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
          // The protocol stays in sync after an ERR; keep the socket.
          return DecodeWireError(buffer.substr(0, newline));
        }
      } else if (buffer.size() >= 5 &&
                 buffer.compare(buffer.size() - 5, 5, "\nEND\n") == 0) {
        return buffer;
      }
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return Disconnect("primary connection closed");
      buffer.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string host_;
  int port_;
  int fd_ = -1;
};

/// What a connection thread needs beyond the server itself: the data
/// directory (so each replica connection gets its own publisher cursor)
/// and, in replica mode, the applier (so `.repl status` reports the
/// applied position).
struct ConnectionContext {
  flock::serve::PredictionServer* server = nullptr;
  std::string data_dir;                            // "" = not durable
  flock::repl::ReplicaApplier* applier = nullptr;  // set in replica mode
  flock::lifecycle::RolloutManager* rollouts = nullptr;  // primary only
};

/// `.repl <args>` dispatch. The publisher is lazily created per
/// connection — each replica's stream holds its own WAL cursor.
std::string HandleRepl(
    ConnectionContext* ctx,
    std::unique_ptr<flock::repl::ReplicationPublisher>* publisher,
    const std::string& args) {
  using flock::repl::ReplCommand;
  ReplCommand cmd = flock::repl::ParseReplCommand(args);
  if (cmd.kind == ReplCommand::Kind::kInvalid) {
    return flock::serve::EncodeError(
        flock::Status::InvalidArgument(cmd.error));
  }
  if (ctx->applier != nullptr) {
    // A replica reports its applied position but does not publish:
    // chaining replicas would stream state nobody has made durable.
    if (cmd.kind == ReplCommand::Kind::kStatus) {
      return flock::repl::EncodeStatusResponse("replica",
                                               ctx->applier->applied());
    }
    return flock::serve::EncodeError(flock::Status::Redirect(
        "replica does not publish; bootstrap and fetch from the primary"));
  }
  if (ctx->data_dir.empty()) {
    return flock::serve::EncodeError(flock::Status::NotSupported(
        "replication requires a durable primary (start with --data-dir)"));
  }
  if (!*publisher) {
    *publisher = std::make_unique<flock::repl::ReplicationPublisher>(
        ctx->data_dir);
  }
  switch (cmd.kind) {
    case ReplCommand::Kind::kStatus: {
      auto end = (*publisher)->DurableEnd();
      if (!end.ok()) return flock::serve::EncodeError(end.status());
      return flock::repl::EncodeStatusResponse("primary", *end);
    }
    case ReplCommand::Kind::kBootstrap: {
      auto bootstrap = (*publisher)->Bootstrap();
      if (!bootstrap.ok()) {
        return flock::serve::EncodeError(bootstrap.status());
      }
      return flock::repl::EncodeBootstrapResponse(*bootstrap);
    }
    case ReplCommand::Kind::kFetch: {
      auto fetch = (*publisher)->Fetch(cmd.from, cmd.max_records);
      if (!fetch.ok()) return flock::serve::EncodeError(fetch.status());
      return flock::repl::EncodeFetchResponse(*fetch);
    }
    case ReplCommand::Kind::kInvalid:
      break;  // handled above
  }
  return flock::serve::EncodeError(
      flock::Status::Internal("unhandled repl command"));
}

/// `.rollout <args>` dispatch: status | begin <model> <source_model>
/// [fraction] | promote <model> | abort <model>.
std::string HandleRollout(ConnectionContext* ctx, const std::string& args) {
  if (ctx->rollouts == nullptr) {
    return flock::serve::EncodeError(flock::Status::Redirect(
        "replica is read-only; manage rollouts on the primary"));
  }
  flock::lifecycle::RolloutManager* manager = ctx->rollouts;
  std::vector<std::string> words = flock::SplitWhitespace(args);
  const std::string usage =
      "usage: .rollout status | begin <model> <source_model> [fraction] | "
      "promote <model> | abort <model>";
  if (words.empty()) {
    return flock::serve::EncodeError(flock::Status::InvalidArgument(usage));
  }
  if (words[0] == "status") {
    std::string json = manager->StatusJson();
    json.erase(std::remove(json.begin(), json.end(), '\n'), json.end());
    return json + "\n";
  }
  if (words[0] == "begin") {
    if (words.size() < 3 || words.size() > 4) {
      return flock::serve::EncodeError(
          flock::Status::InvalidArgument(usage));
    }
    flock::lifecycle::RolloutConfig config;
    if (words.size() == 4) {
      char* end = nullptr;
      double fraction = std::strtod(words[3].c_str(), &end);
      if (end == words[3].c_str() || *end != '\0' || fraction < 0.0 ||
          fraction > 1.0) {
        return flock::serve::EncodeError(flock::Status::InvalidArgument(
            "canary fraction must be a number in [0, 1]"));
      }
      config.canary_permille = static_cast<uint32_t>(fraction * 1000.0);
    }
    flock::Status begun =
        manager->Begin(words[1], words[2], config, "wire-admin");
    if (!begun.ok()) return flock::serve::EncodeError(begun);
    return "rollout " + words[1] + " staged\n";
  }
  if (words[0] == "promote" || words[0] == "abort") {
    if (words.size() != 2) {
      return flock::serve::EncodeError(
          flock::Status::InvalidArgument(usage));
    }
    flock::Status moved = words[0] == "promote" ? manager->Promote(words[1])
                                                : manager->Abort(words[1]);
    if (!moved.ok()) return flock::serve::EncodeError(moved);
    auto view = manager->Describe(words[1]);
    if (!view.ok()) return flock::serve::EncodeError(view.status());
    return "rollout " + words[1] + " " +
           flock::lifecycle::StageName(view->stage) + "\n";
  }
  return flock::serve::EncodeError(flock::Status::InvalidArgument(usage));
}

void ServeConnection(ConnectionContext* ctx, int fd) {
  using flock::serve::Request;
  flock::serve::PredictionServer* server = ctx->server;
  std::unique_ptr<flock::repl::ReplicationPublisher> publisher;
  auto session_or = server->OpenSession();
  if (!session_or.ok()) {
    std::string err = flock::serve::EncodeError(session_or.status());
    (void)write(fd, err.data(), err.size());
    close(fd);
    return;
  }
  uint64_t session = *session_or;

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      ssize_t n = read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;  // disconnect
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);

    Request request = flock::serve::ParseRequestLine(line);
    std::string response;
    switch (request.kind) {
      case Request::Kind::kQuery:
        response =
            flock::serve::EncodeResponse(server->Execute(session,
                                                         request.text));
        break;
      case Request::Kind::kMetrics:
        if (request.text == "prom") {
          // Prometheus exposition is inherently multi-line; frame it
          // with END like a query response.
          response = server->MetricsPrometheus() + "END\n";
          break;
        }
        // One line on the wire: the client frames replies by newline.
        response = server->MetricsJson();
        response.erase(std::remove(response.begin(), response.end(), '\n'),
                       response.end());
        response += '\n';
        break;
      case Request::Kind::kTrace: {
        auto live = server->sessions()->Get(session);
        if (!live.ok()) {
          response = flock::serve::EncodeError(live.status());
        } else if (request.text == "on" || request.text == "off") {
          (*live)->set_trace(request.text == "on");
          response = "trace " + request.text + "\n";
        } else {
          response = flock::serve::EncodeError(
              flock::Status::InvalidArgument("usage: .trace on|off"));
        }
        break;
      }
      case Request::Kind::kSlowLog: {
        flock::obs::SlowQueryLog* slow_log =
            server->engine()->sql()->slow_log();
        if (request.text.empty()) {
          response = server->SlowLogJson();
          response.erase(
              std::remove(response.begin(), response.end(), '\n'),
              response.end());
          response += '\n';
        } else if (request.text == "clear") {
          slow_log->Clear();
          response = "slowlog cleared\n";
        } else {
          char* end = nullptr;
          double threshold = std::strtod(request.text.c_str(), &end);
          if (end != request.text.c_str() && *end == '\0') {
            slow_log->set_threshold_ms(threshold);
            response = "slowlog threshold_ms=" + request.text + "\n";
          } else {
            response = flock::serve::EncodeError(
                flock::Status::InvalidArgument(
                    "usage: .slowlog [clear|<threshold ms>]"));
          }
        }
        break;
      }
      case Request::Kind::kSession:
        response = "session " + std::to_string(session) + "\n";
        break;
      case Request::Kind::kKill: {
        char* end = nullptr;
        unsigned long long target =
            std::strtoull(request.text.c_str(), &end, 10);
        if (request.text.empty() || end == request.text.c_str() ||
            *end != '\0') {
          response = flock::serve::EncodeError(
              flock::Status::InvalidArgument("usage: .kill <session id>"));
          break;
        }
        flock::Status killed = server->KillSession(target);
        response = killed.ok()
                       ? "killed " + request.text + "\n"
                       : flock::serve::EncodeError(killed);
        break;
      }
      case Request::Kind::kDeadline: {
        auto live = server->sessions()->Get(session);
        if (!live.ok()) {
          response = flock::serve::EncodeError(live.status());
          break;
        }
        if (request.text == "off") {
          (*live)->set_deadline_ms(0.0);
          response = "deadline off\n";
        } else if (request.text == "default") {
          (*live)->set_deadline_ms(-1.0);
          response = "deadline default\n";
        } else {
          char* end = nullptr;
          double ms = std::strtod(request.text.c_str(), &end);
          if (request.text.empty() || end == request.text.c_str() ||
              *end != '\0' || ms <= 0.0) {
            response = flock::serve::EncodeError(
                flock::Status::InvalidArgument(
                    "usage: .deadline <ms>|off|default"));
          } else {
            (*live)->set_deadline_ms(ms);
            response = "deadline " + request.text + "ms\n";
          }
        }
        break;
      }
      case Request::Kind::kRepl:
        response = HandleRepl(ctx, &publisher, request.text);
        break;
      case Request::Kind::kRollout:
        response = HandleRollout(ctx, request.text);
        break;
      case Request::Kind::kQuit:
        open = false;
        continue;
      case Request::Kind::kEmpty:
        continue;
    }
    if (write(fd, response.data(), response.size()) < 0) break;
  }
  (void)server->CloseSession(session);
  close(fd);
}

/// Parses the whole of `text` as a number in [min, max] — an integer for
/// integral T, digits only — or prints what `flag` wants and returns
/// false. Every numeric flag and positional goes through here, so a typo
/// like `=10k` or `abc` stops the server instead of becoming 10 or 0.
template <typename T>
bool ParseNumberFlag(const char* flag, const std::string& text, T min, T max,
                     T* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  T value{};
  bool parsed = false;
  if constexpr (std::is_floating_point_v<T>) {
    value = static_cast<T>(std::strtod(begin, &end));
    parsed = end != begin;
  } else {
    unsigned long long wide = std::strtoull(begin, &end, 10);
    parsed = end != begin && std::isdigit(static_cast<unsigned char>(*begin));
    parsed = parsed && wide <= static_cast<unsigned long long>(max);
    value = static_cast<T>(wide);
  }
  if (!parsed || *end != '\0' || errno != 0 || !(value >= min) ||
      !(value <= max)) {
    std::ostringstream range;
    range << "[" << min << ", " << max << "]";
    std::fprintf(stderr, "%s wants %s in %s, got '%s'\n", flag,
                 std::is_floating_point_v<T> ? "a number" : "an integer",
                 range.str().c_str(), text.c_str());
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string replica_of;
  uint64_t staleness_bound = 10000;  // records behind before shedding reads
  double default_deadline_ms = 0.0;  // 0 = no deadline
  flock::serve::MicroBatchOptions microbatch;  // off unless --microbatch
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(std::strlen("--data-dir="));
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg.rfind("--replica-of=", 0) == 0) {
      replica_of = arg.substr(std::strlen("--replica-of="));
    } else if (arg == "--replica-of" && i + 1 < argc) {
      replica_of = argv[++i];
    } else if (arg.rfind("--staleness-bound=", 0) == 0) {
      if (!ParseNumberFlag("--staleness-bound",
                           arg.substr(std::strlen("--staleness-bound=")),
                           uint64_t{0}, UINT64_MAX, &staleness_bound)) {
        return 1;
      }
    } else if (arg == "--microbatch") {
      microbatch.enabled = true;
    } else if (arg.rfind("--microbatch=", 0) == 0) {
      microbatch.enabled = true;
      if (!ParseNumberFlag("--microbatch",
                           arg.substr(std::strlen("--microbatch=")),
                           size_t{2}, size_t{1} << 16,
                           &microbatch.max_batch)) {
        return 1;
      }
    } else if (arg.rfind("--microbatch-wait-ms=", 0) == 0) {
      microbatch.enabled = true;
      if (!ParseNumberFlag("--microbatch-wait-ms",
                           arg.substr(std::strlen("--microbatch-wait-ms=")),
                           0.0, 60000.0, &microbatch.max_wait_ms)) {
        return 1;
      }
    } else if (arg.rfind("--default-deadline-ms=", 0) == 0) {
      if (!ParseNumberFlag("--default-deadline-ms",
                           arg.substr(std::strlen("--default-deadline-ms=")),
                           0.0, 1e9, &default_deadline_ms)) {
        return 1;
      }
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 3) {
    std::fprintf(stderr, "unexpected argument '%s'\n",
                 positional[3].c_str());
    return 1;
  }
  int port = 5433;
  flock::serve::ServerOptions options;
  // Positionals: port, workers, queue depth (0 = unbounded).
  if ((positional.size() > 0 &&
       !ParseNumberFlag("port", positional[0], 1, 65535, &port)) ||
      (positional.size() > 1 &&
       !ParseNumberFlag("workers", positional[1], size_t{1}, size_t{1024},
                        &options.admission.num_workers)) ||
      (positional.size() > 2 &&
       !ParseNumberFlag("queue depth", positional[2], size_t{0},
                        size_t{1} << 20,
                        &options.admission.max_queue_depth))) {
    return 1;
  }
  if (!replica_of.empty() && !data_dir.empty()) {
    std::fprintf(stderr,
                 "--replica-of and --data-dir are mutually exclusive "
                 "(replicas are memory-only until promoted)\n");
    return 1;
  }
  options.microbatch = microbatch;
  options.default_deadline_ms = default_deadline_ms;

  // One shared engine; serial per query so concurrency comes from the
  // serving worker pool, not nested morsel parallelism.
  flock::flock::FlockEngineOptions engine_options;
  engine_options.sql.num_threads = 1;
  flock::flock::FlockEngine engine(engine_options);
  std::unique_ptr<TcpReplicationSource> source;
  std::unique_ptr<flock::repl::ReplicaApplier> applier;
  if (!replica_of.empty()) {
    size_t colon = replica_of.rfind(':');
    int primary_port = 0;
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "--replica-of wants HOST:PORT, got %s\n",
                   replica_of.c_str());
      return 1;
    }
    if (!ParseNumberFlag("--replica-of port", replica_of.substr(colon + 1), 1,
                         65535, &primary_port)) {
      return 1;
    }
    flock::Status replica_open = engine.OpenAsReplica();
    if (!replica_open.ok()) {
      std::fprintf(stderr, "open as replica: %s\n",
                   replica_open.ToString().c_str());
      return 1;
    }
    source = std::make_unique<TcpReplicationSource>(
        replica_of.substr(0, colon), primary_port);
    applier = std::make_unique<flock::repl::ReplicaApplier>(&engine,
                                                            source.get());
    flock::Status caught_up = applier->CatchUp();
    if (!caught_up.ok()) {
      std::fprintf(stderr, "catch-up from %s: %s\n", replica_of.c_str(),
                   caught_up.ToString().c_str());
      return 1;
    }
    applier->Start();
    // Bounded staleness: reads are shed (Unavailable) while the applier
    // is more than staleness_bound records behind the primary's log.
    flock::repl::ReplicaApplier* gate = applier.get();
    uint64_t bound = staleness_bound;
    options.read_gate = [gate, bound]() -> flock::Status {
      uint64_t lag = gate->lag_records();
      if (lag <= bound) return flock::Status::OK();
      std::string lag_text = lag == UINT64_MAX ? std::string("inf")
                                               : std::to_string(lag);
      return flock::Status::Unavailable(
          "replica lag " + lag_text + " records exceeds staleness bound " +
          std::to_string(bound));
    };
    std::printf("replica of %s: caught up at %s "
                "(staleness bound %llu records)\n",
                replica_of.c_str(), applier->applied().ToString().c_str(),
                static_cast<unsigned long long>(staleness_bound));
  }
  if (!data_dir.empty()) {
    flock::Status opened = engine.Open(data_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", data_dir.c_str(),
                   opened.ToString().c_str());
      return 1;
    }
    const flock::wal::RecoveryResult& rec =
        engine.durability()->recovery();
    std::printf(
        "durable at %s (snapshot %s, %zu WAL records replayed%s)\n",
        data_dir.c_str(), rec.snapshot_restored ? "restored" : "none",
        rec.wal_records_replayed,
        rec.tail_truncated ? ", torn tail dropped" : "");
  }
  // A recovered data dir already holds the users table and churn model;
  // rebuilding would fail on CREATE TABLE (AlreadyExists) and re-log the
  // whole demo, so only build into a fresh engine. Replicas never build:
  // their state comes from the primary's snapshot + log.
  if (replica_of.empty() && !engine.database()->HasTable("users")) {
    if (!BuildDemoDatabase(&engine, 2000)) {
      std::fprintf(stderr, "demo database setup failed\n");
      return 1;
    }
  }
  // The lifecycle manager sits between the wire and the engine: its
  // interceptor shadow-scores / canary-routes scoring queries while any
  // rollout is active, and recovers in-flight rollouts from the WAL.
  // Replicas skip it — their rollout state streams in via ApplyReplicated
  // and transitions belong to the primary.
  std::unique_ptr<flock::lifecycle::RolloutManager> rollouts;
  if (replica_of.empty()) {
    rollouts = std::make_unique<flock::lifecycle::RolloutManager>(&engine);
    flock::Status resumed = rollouts->Resume();
    if (!resumed.ok()) {
      std::fprintf(stderr, "rollout resume: %s\n",
                   resumed.ToString().c_str());
      return 1;
    }
    options.interceptor = rollouts->MakeInterceptor();
  }
  flock::serve::PredictionServer server(&engine, options);
  if (applier) {
    flock::repl::RegisterReplicaMetrics(server.metrics_registry(),
                                        applier.get());
  }
  if (rollouts) rollouts->RegisterMetrics(server.metrics_registry());

  int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  int reuse = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      listen(listen_fd, 64) < 0) {
    std::perror("bind/listen");
    close(listen_fd);
    return 1;
  }
  g_listen_fd.store(listen_fd);
  signal(SIGINT, HandleSigint);
  signal(SIGPIPE, SIG_IGN);

  std::printf(
      "flock_server listening on port %d (%zu workers, queue %zu%s)\n"
      "try: ./flock_client 127.0.0.1 %d\n",
      port, options.admission.num_workers,
      options.admission.max_queue_depth,
      replica_of.empty() ? "" : ", read-only replica", port);

  ConnectionContext context;
  context.server = &server;
  context.data_dir = data_dir;
  context.applier = applier.get();
  context.rollouts = rollouts.get();

  std::vector<std::thread> connections;
  while (true) {
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) break;  // listen socket closed by SIGINT
    connections.emplace_back(ServeConnection, &context, fd);
  }

  std::printf("\ndraining (in-flight queries finish, new ones shed)%s...\n",
              engine.durable() ? ", then checkpointing" : "");
  server.Shutdown();  // drains, then checkpoints the engine if durable
  if (applier) applier->Stop();
  for (auto& t : connections) {
    if (t.joinable()) t.join();
  }
  // Final metrics, printed exactly once on the way out.
  std::printf("%s\n", server.MetricsJson().c_str());
  return 0;
}
