#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

namespace pipebench {

namespace {

constexpr std::array<const char*, kClassCount> kQuerySpanNames = {
    "query.instant", "query.hot", "query.cold", "query.cost"};
constexpr std::size_t kRecentKeys = 64;

std::uint32_t read_be32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t read_be64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

serve::Request make_query(QueryClass& cls, util::Rng& rng,
                          const Entities& entities, std::uint64_t now,
                          std::size_t retention) {
  const auto n = static_cast<std::int64_t>(now);
  const auto ring = static_cast<std::int64_t>(retention);
  if (cls == kCold && n - ring < 2) cls = kHot;

  serve::Request request;
  const auto pick_tenant = [&] {
    request.tenant = entities.tenants[rng.uniform_u64(entities.tenants.size())];
  };
  const auto pick_vm = [&] {
    const auto& [host, vm] = entities.vms[rng.uniform_u64(entities.vms.size())];
    request.host = host;
    request.vm = vm;
  };
  // Windows name tenant or VM energy, half each.
  const auto energy_window = [&](std::int64_t t0, std::int64_t t1) {
    if (rng.uniform_u64(2) == 0) {
      request.kind = serve::QueryKind::kTenantEnergy;
      pick_tenant();
    } else {
      request.kind = serve::QueryKind::kVmEnergy;
      pick_vm();
    }
    request.t0 = static_cast<double>(std::max<std::int64_t>(t0, 0));
    request.t1 = static_cast<double>(std::max<std::int64_t>(t1, 0));
  };

  switch (cls) {
    case kInstant: {
      const std::uint64_t pick = rng.uniform_u64(5);
      if (pick < 2) {
        request.kind = serve::QueryKind::kVmPower;
        pick_vm();
      } else if (pick < 4) {
        request.kind = serve::QueryKind::kTenantPower;
        pick_tenant();
      } else {
        request.kind = serve::QueryKind::kFleetPower;
      }
      break;
    }
    case kHot: {
      // Inside the newest quarter of the ring, so it stays hot in flight.
      const std::int64_t span = std::clamp<std::int64_t>(ring / 4, 1, 16);
      const std::int64_t t1 = n - rng.uniform_int(0, 2);
      energy_window(t1 - rng.uniform_int(1, span), t1);
      break;
    }
    case kCold: {
      // Starts before the ring's oldest snapshot: only the ledger has it.
      const std::int64_t t0 = rng.uniform_int(1, n - ring - 1);
      energy_window(t0, t0 + rng.uniform_int(1, 32));
      break;
    }
    case kCost:
    case kClassCount: {
      request.kind = serve::QueryKind::kTenantCost;
      pick_tenant();
      // Up to two accounting days back, so a bill crosses a few peak and
      // off-peak boundaries whatever the history length.
      const std::int64_t t1 = std::max<std::int64_t>(1, n - rng.uniform_int(0, 2));
      request.t1 = static_cast<double>(t1);
      request.t0 = static_cast<double>(
          std::max<std::int64_t>(1, t1 - rng.uniform_int(1, 480)));
      cls = kCost;
      break;
    }
  }
  return request;
}

LoadGen::LoadGen(LoadGenOptions options, Entities entities,
                 const std::atomic<std::uint64_t>& rounds, bool traced)
    : options_(options),
      entities_(std::move(entities)),
      rounds_(rounds),
      end_ns_(options.end_ns),
      rng_(options.seed),
      log_("loadgen", traced) {
  // Reserved up front so the send path never reallocates mid-run.
  const double expected = std::clamp(
      options.rate_hz * static_cast<double>(options.end_ns - options.start_ns) *
          1e-9,
      0.0, static_cast<double>(1 << 20));
  records_.reserve(static_cast<std::size_t>(expected) + 16);
}

LoadGen::~LoadGen() {
  stop_sending();
  join();
}

void LoadGen::start() { thread_ = std::thread([this] { run(); }); }

void LoadGen::stop_sending() noexcept {
  const std::int64_t now = now_ns();
  std::int64_t end = end_ns_.load();
  while (now < end && !end_ns_.compare_exchange_weak(end, now)) {
  }
}

void LoadGen::join() {
  if (thread_.joinable()) thread_.join();
}

void LoadGen::run() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    failure_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    failure_ = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  run_io(fd);
  ::close(fd);
}

void LoadGen::run_io(int fd) {
  const double interval_ns = 1e9 / options_.rate_hz;
  const auto due_of = [&](std::uint64_t i) {
    return options_.start_ns +
           static_cast<std::int64_t>(std::llround(static_cast<double>(i) *
                                                  interval_ns));
  };
  double weight_sum = 0.0;
  for (const double w : options_.mix) weight_sum += w;

  std::vector<std::pair<serve::Request, QueryClass>> recent;
  std::size_t recent_next = 0;
  std::string out;
  std::string in;
  char buffer[64 * 1024];
  bool sending = true;
  std::int64_t drain_until = 0;

  while (true) {
    std::int64_t now = now_ns();
    if (sending) {
      const std::int64_t end = end_ns_.load();
      const std::size_t first = records_.size();
      while (true) {
        const std::int64_t due = due_of(records_.size());
        if (due >= end) {
          sending = false;
          drain_until = std::max(end, now) +
                        static_cast<std::int64_t>(options_.drain_s * 1e9);
          break;
        }
        if (due > now) break;
        serve::Request request;
        QueryClass cls = kInstant;
        if (!recent.empty() && rng_.uniform() < options_.repeat_share) {
          std::tie(request, cls) = recent[rng_.uniform_u64(recent.size())];
        } else {
          double pick = rng_.uniform() * weight_sum;
          int c = 0;
          while (c + 1 < kClassCount && pick >= options_.mix[c]) {
            pick -= options_.mix[c];
            ++c;
          }
          cls = static_cast<QueryClass>(c);
          request = make_query(cls, rng_, entities_,
                               rounds_.load(std::memory_order_acquire),
                               options_.retention);
          if (recent.size() < kRecentKeys) {
            recent.emplace_back(request, cls);
          } else {
            recent[recent_next] = {request, cls};
            recent_next = (recent_next + 1) % kRecentKeys;
          }
        }
        out += serve::encode_frame_with_id(serve::encode_request(request),
                                           records_.size());
        records_.push_back({due, 0, 0, cls, false});
      }
      if (!out.empty()) {
        const std::int64_t sent = now_ns();
        if (!send_all(fd, out)) {
          failure_ = std::string("send: ") + std::strerror(errno);
          return;
        }
        out.clear();
        for (std::size_t i = first; i < records_.size(); ++i)
          records_[i].sent_ns = sent;
        outstanding_ += records_.size() - first;
        backlog_max_ = std::max(backlog_max_, outstanding_);
      }
    }
    if (!sending && (outstanding_ == 0 || now >= drain_until)) return;

    const std::int64_t wake =
        sending ? due_of(records_.size()) : drain_until;
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now_ns());
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      failure_ = std::string("poll: ") + std::strerror(errno);
      return;
    }
    if (ready <= 0) continue;

    while (true) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n > 0) {
        in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      failure_ = n == 0 ? "frontend closed the connection"
                        : std::string("recv: ") + std::strerror(errno);
      return;
    }

    const std::int64_t done = now_ns();
    std::size_t pos = 0;
    while (in.size() - pos >= serve::kFramePrefixBytes) {
      const std::uint32_t prefix = read_be32(in.data() + pos);
      const bool has_id = (prefix & serve::kFrameIdFlag) != 0;
      const std::size_t len = prefix & serve::kFrameLenMask;
      const std::size_t header =
          serve::kFramePrefixBytes + (has_id ? serve::kFrameIdBytes : 0);
      if (in.size() - pos < header + len) break;
      if (!has_id) {
        failure_ = "answer without the request id";
        return;
      }
      const std::uint64_t id = read_be64(in.data() + pos + serve::kFramePrefixBytes);
      const auto response = serve::decode_response(
          std::string_view(in).substr(pos + header, len));
      pos += header + len;
      if (!response || id >= records_.size() || records_[id].done_ns != 0) {
        failure_ = "undecodable or unexpected answer";
        return;
      }
      on_response(id, *response, done);
    }
    in.erase(0, pos);
  }
}

void LoadGen::on_response(std::uint64_t id, const serve::Response& response,
                          std::int64_t done_ns) {
  QueryRecord& record = records_[id];
  record.done_ns = done_ns;
  record.ok = response.ok && response.complete;
  if (!record.ok) ++errors_[response.ok ? 0 : static_cast<int>(response.code)];
  --outstanding_;
  log_.add(kQuerySpanNames[record.cls], id, -1, record.due_ns, done_ns);
}

}  // namespace pipebench
