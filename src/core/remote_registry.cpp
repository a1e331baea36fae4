#include "core/remote_registry.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mw::core {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

RegistryServer::RegistryServer(std::uint16_t port) {
  rpc_.registerMethod("registry.announce", [this](const Bytes& args) -> Bytes {
    ByteReader r(args);
    std::string name = r.str();
    Endpoint ep{r.str(), r.u16()};
    const std::uint32_t ttlMs = r.u32();
    std::uint64_t generation = 0;
    if (!r.exhausted()) generation = r.u64();  // absent in pre-fencing announces
    mw::util::require(!name.empty(), "registry.announce: empty name");
    Entry entry;
    entry.endpoint = std::move(ep);
    entry.generation = generation;
    entry.expiresAt = ttlMs == 0 ? std::chrono::steady_clock::time_point::max()
                                 : std::chrono::steady_clock::now() +
                                       std::chrono::milliseconds(ttlMs);
    bool accepted = true;
    {
      std::lock_guard lock(mutex_);
      if (generation > 0) {
        auto& fence = fences_[name];
        if (generation < fence) {
          accepted = false;  // stale owner: the name moved on without it
        } else {
          fence = generation;
        }
      }
      if (accepted) entries_[name] = std::move(entry);
    }
    ByteWriter w;
    w.boolean(accepted);
    return w.take();
  });
  rpc_.registerMethod("registry.lookup", [this](const Bytes& args) -> Bytes {
    ByteReader r(args);
    std::string name = r.str();
    ByteWriter w;
    std::lock_guard lock(mutex_);
    pruneExpiredLocked();
    auto it = entries_.find(name);
    w.boolean(it != entries_.end());
    if (it != entries_.end()) {
      w.str(it->second.endpoint.host);
      w.u16(it->second.endpoint.port);
      w.u64(it->second.generation);
    }
    return w.take();
  });
  rpc_.registerMethod("registry.list", [this](const Bytes&) -> Bytes {
    std::vector<std::string> names;
    {
      std::lock_guard lock(mutex_);
      pruneExpiredLocked();
      names.reserve(entries_.size());
      for (const auto& [name, _] : entries_) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(names.size()));
    for (const auto& name : names) w.str(name);
    return w.take();
  });
  rpc_.registerMethod("registry.withdraw", [this](const Bytes& args) -> Bytes {
    ByteReader r(args);
    std::string name = r.str();
    bool removed;
    {
      std::lock_guard lock(mutex_);
      pruneExpiredLocked();
      removed = entries_.erase(name) > 0;
    }
    ByteWriter w;
    w.boolean(removed);
    return w.take();
  });
  rpc_.registerMethod("registry.putMeta", [this](const Bytes& args) -> Bytes {
    ByteReader r(args);
    std::string name = r.str();
    const std::uint64_t version = r.u64();
    Bytes value = r.blob();
    mw::util::require(!name.empty(), "registry.putMeta: empty name");
    bool accepted;
    {
      std::lock_guard lock(mutex_);
      auto& slot = meta_[name];
      accepted = slot.version == 0 || version > slot.version;
      if (accepted) {
        slot.value = std::move(value);
        slot.version = version;
      }
    }
    ByteWriter w;
    w.boolean(accepted);
    return w.take();
  });
  rpc_.registerMethod("registry.getMeta", [this](const Bytes& args) -> Bytes {
    ByteReader r(args);
    std::string name = r.str();
    ByteWriter w;
    std::lock_guard lock(mutex_);
    auto it = meta_.find(name);
    w.boolean(it != meta_.end());
    if (it != meta_.end()) {
      w.u64(it->second.version);
      w.blob(it->second.value);
    }
    return w.take();
  });
  listener_ = std::make_unique<orb::TcpListener>(
      port, [this](std::shared_ptr<orb::Transport> t) { rpc_.serve(std::move(t)); });
}

void RegistryServer::pruneExpiredLocked() const {
  const auto now = std::chrono::steady_clock::now();
  std::erase_if(entries_, [&](const auto& kv) { return kv.second.expiresAt <= now; });
}

std::size_t RegistryServer::entryCount() const {
  std::lock_guard lock(mutex_);
  pruneExpiredLocked();
  return entries_.size();
}

RegistryClient::RegistryClient(const std::string& host, std::uint16_t port)
    : rpc_(std::make_shared<orb::RpcClient>(orb::tcpConnect(host, port))) {}

bool RegistryClient::announce(const std::string& name, const Endpoint& endpoint,
                              util::Duration ttl, std::uint64_t generation) {
  mw::util::require(ttl.count() >= 0, "RegistryClient::announce: negative TTL");
  ByteWriter w;
  w.str(name);
  w.str(endpoint.host);
  w.u16(endpoint.port);
  w.u32(static_cast<std::uint32_t>(ttl.count()));
  w.u64(generation);  // appended last; absence decodes as unfenced
  Bytes reply = rpc_->call("registry.announce", w.take());
  ByteReader r(reply);
  if (r.exhausted()) return true;  // pre-fencing server: every announce lands
  return r.boolean();
}

std::optional<Endpoint> RegistryClient::lookup(const std::string& name) {
  auto resolved = lookupEntry(name);
  if (!resolved) return std::nullopt;
  return std::move(resolved->endpoint);
}

std::optional<RegistryClient::ResolvedEntry> RegistryClient::lookupEntry(
    const std::string& name) {
  ByteWriter w;
  w.str(name);
  Bytes reply = rpc_->call("registry.lookup", w.take());
  ByteReader r(reply);
  if (!r.boolean()) return std::nullopt;
  ResolvedEntry entry;
  entry.endpoint.host = r.str();
  entry.endpoint.port = r.u16();
  if (!r.exhausted()) entry.generation = r.u64();  // absent pre-fencing
  return entry;
}

std::vector<std::string> RegistryClient::list() {
  Bytes reply = rpc_->call("registry.list", {});
  ByteReader r(reply);
  std::vector<std::string> names;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) names.push_back(r.str());
  return names;
}

bool RegistryClient::withdraw(const std::string& name) {
  ByteWriter w;
  w.str(name);
  Bytes reply = rpc_->call("registry.withdraw", w.take());
  ByteReader r(reply);
  return r.boolean();
}

bool RegistryClient::putMeta(const std::string& name, const util::Bytes& value,
                             std::uint64_t version) {
  ByteWriter w;
  w.str(name);
  w.u64(version);
  w.blob(value);
  Bytes reply = rpc_->call("registry.putMeta", w.take());
  ByteReader r(reply);
  return r.boolean();
}

std::optional<RegistryClient::Meta> RegistryClient::getMeta(const std::string& name) {
  ByteWriter w;
  w.str(name);
  Bytes reply = rpc_->call("registry.getMeta", w.take());
  ByteReader r(reply);
  if (!r.boolean()) return std::nullopt;
  Meta meta;
  meta.version = r.u64();
  meta.value = r.blob();
  return meta;
}

}  // namespace mw::core
