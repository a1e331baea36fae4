// Distributed name service over the MicroOrb — the Gaia Space Repository
// (§7: "Gaia applications can discover the location service component of
// MiddleWhere by querying the Gaia Space Repository service, which provides
// a list of available services").
//
// The RegistryServer listens on TCP; services announce (name -> host:port)
// endpoints; applications look names up and connect directly — exactly the
// discovery-then-talk-directly pattern the paper describes.
//
// Liveness: an announce may carry a TTL; the entry expires unless the owner
// re-announces (heartbeats) before the TTL lapses, so a crashed service
// disappears from lookup()/list() instead of lingering as a dead endpoint.
// Expiry is lazy (checked on every read), matching the reading-store's lazy
// TTL discipline — no background reaper thread. A TTL of zero means the
// entry never expires (the pre-TTL behavior).
//
// Ownership fencing: an announce may carry a *generation* (nonzero). The
// registry keeps a per-name high-water mark that survives TTL expiry and
// withdraw(); a generational announce below the mark is rejected. This is
// what keeps a slow-but-alive primary from flapping ownership back after a
// backup promoted itself under generation+1 — the stale heartbeat still
// arrives, but the registry refuses it and the promoted endpoint stands.
// Generation zero opts out (legacy services that never fail over).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "orb/rpc.hpp"
#include "orb/tcp.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace mw::core {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

class RegistryServer {
 public:
  /// Binds to 127.0.0.1:<port> (0 = ephemeral).
  explicit RegistryServer(std::uint16_t port = 0);

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_->port(); }
  [[nodiscard]] std::size_t entryCount() const;

 private:
  struct Entry {
    Endpoint endpoint;
    /// Expiry instant; time_point::max() = never (TTL 0). Steady clock: the
    /// registry measures heartbeat gaps, not calendar time.
    std::chrono::steady_clock::time_point expiresAt;
    /// Generation the entry was announced under (0 = unfenced).
    std::uint64_t generation = 0;
  };

  /// Drops every expired entry (mutex_ held). Expiry mutates on the read
  /// path — that is what "lazy" means here — so the map is mutable.
  void pruneExpiredLocked() const;

  struct MetaEntry {
    util::Bytes value;
    std::uint64_t version = 0;
  };

  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, Entry> entries_;
  /// Per-name generation high-water marks. Deliberately NOT pruned with the
  /// entries: the fence must outlive the entry it protects, or a stale
  /// primary could reclaim a name the moment its promoted successor's
  /// heartbeat lapses.
  std::unordered_map<std::string, std::uint64_t> fences_;
  /// Versioned metadata blobs (putMeta/getMeta): cluster-wide shared state
  /// like the spatial territory map. Never expires; last-writer-wins by
  /// version number, so a slow writer republishing an old map loses.
  std::unordered_map<std::string, MetaEntry> meta_;
  orb::RpcServer rpc_;
  std::unique_ptr<orb::TcpListener> listener_;
};

class RegistryClient {
 public:
  RegistryClient(const std::string& host, std::uint16_t port);

  /// Publishes or replaces a service endpoint. With a nonzero `ttl` the
  /// entry expires unless re-announced (same name, any endpoint) within the
  /// TTL — call announce() periodically as a heartbeat. TTL zero (the
  /// default) registers the entry forever. A nonzero `generation` fences the
  /// name: the registry remembers the highest generation ever announced
  /// (surviving expiry and withdraw) and rejects announces below it.
  /// Returns false when the announce was fenced off; the caller has lost
  /// ownership of the name and should demote itself.
  bool announce(const std::string& name, const Endpoint& endpoint,
                util::Duration ttl = util::Duration::zero(), std::uint64_t generation = 0);
  /// Resolves a name; nullopt when not registered.
  [[nodiscard]] std::optional<Endpoint> lookup(const std::string& name);

  /// lookup() plus the generation the entry was announced under — what a
  /// warm standby needs to promote itself with generation+1.
  struct ResolvedEntry {
    Endpoint endpoint;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] std::optional<ResolvedEntry> lookupEntry(const std::string& name);
  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> list();
  /// Removes an entry; false when absent.
  bool withdraw(const std::string& name);

  /// Versioned metadata blob the registry stores alongside endpoints —
  /// how the cluster publishes shared state (the spatial territory map)
  /// without a separate coordination service. The write lands iff `version`
  /// is strictly greater than the stored one (first write always lands), so
  /// concurrent publishers race monotonically and a stale republish is a
  /// no-op. Returns whether the write was accepted.
  bool putMeta(const std::string& name, const util::Bytes& value, std::uint64_t version);
  struct Meta {
    util::Bytes value;
    std::uint64_t version = 0;
  };
  /// Reads a metadata blob; nullopt when never written.
  [[nodiscard]] std::optional<Meta> getMeta(const std::string& name);

 private:
  std::shared_ptr<orb::RpcClient> rpc_;
};

}  // namespace mw::core
