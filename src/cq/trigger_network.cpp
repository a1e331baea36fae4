#include "cq/trigger_network.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace mw::cq {

using mw::util::require;

std::size_t TriggerNetwork::RectKeyHash::operator()(const RectKey& k) const noexcept {
  auto mix = [](std::size_t seed, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return seed ^ (std::hash<std::uint64_t>{}(bits) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
  };
  std::size_t h = 0;
  h = mix(h, k.rect.lo().x);
  h = mix(h, k.rect.lo().y);
  h = mix(h, k.rect.hi().x);
  return mix(h, k.rect.hi().y);
}

void TriggerNetwork::installProduction(ProductionId id, const geo::Rect& region,
                                       const std::optional<std::string>& subject) {
  require(!region.empty(), "TriggerNetwork::installProduction: empty region");
  require(!productions_.contains(id), "TriggerNetwork::installProduction: duplicate id");

  std::size_t slot;
  auto it = alphaByRect_.find(RectKey{region});
  if (it != alphaByRect_.end()) {
    slot = it->second;  // shared alpha node: no new R-tree entry
  } else {
    if (!freeAlphaSlots_.empty()) {
      slot = freeAlphaSlots_.back();
      freeAlphaSlots_.pop_back();
      alphas_[slot].emplace();
    } else {
      slot = alphas_.size();
      alphas_.emplace_back(std::in_place);
    }
    alphas_[slot]->region = region;
    alphaByRect_.emplace(RectKey{region}, slot);
    alphaTree_.insert(region, slot);
    ++liveAlphas_;
  }

  AlphaNode& alpha = *alphas_[slot];
  if (subject) {
    alpha.bySubject[*subject].push_back(id);
  } else {
    alpha.anySubject.push_back(id);
  }
  ++alpha.productionCount;
  productions_.emplace(id, Production{slot, subject, {}});
}

bool TriggerNetwork::removeProduction(ProductionId id) {
  auto it = productions_.find(id);
  if (it == productions_.end()) return false;
  Production& prod = it->second;
  AlphaNode& alpha = *alphas_[prod.alphaSlot];

  auto eraseFrom = [id](std::vector<ProductionId>& v) {
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
  };
  if (prod.subject) {
    auto subjectIt = alpha.bySubject.find(*prod.subject);
    eraseFrom(subjectIt->second);
    if (subjectIt->second.empty()) alpha.bySubject.erase(subjectIt);
  } else {
    eraseFrom(alpha.anySubject);
  }
  if (prod.counting) {
    eraseFrom(alpha.counting);
    --countingProductions_;
  }
  if (--alpha.productionCount == 0) {
    alphaTree_.remove(alpha.region, prod.alphaSlot);
    alphaByRect_.erase(RectKey{alpha.region});
    alphas_[prod.alphaSlot].reset();
    freeAlphaSlots_.push_back(prod.alphaSlot);
    --liveAlphas_;
  }

  for (const std::string& object : prod.insideObjects) {
    auto objIt = insideByObject_.find(object);
    objIt->second.erase(id);
    if (objIt->second.empty()) insideByObject_.erase(objIt);
    --insidePairs_;
  }
  productions_.erase(it);
  return true;
}

void TriggerNetwork::collectAlpha(const AlphaNode& alpha, const std::string& object,
                                  std::vector<ProductionId>& out) const {
  out.insert(out.end(), alpha.anySubject.begin(), alpha.anySubject.end());
  auto subjectIt = alpha.bySubject.find(object);
  if (subjectIt != alpha.bySubject.end()) {
    out.insert(out.end(), subjectIt->second.begin(), subjectIt->second.end());
  }
}

void TriggerNetwork::matchAlpha(const geo::Rect& readingBox, const std::string& object,
                                std::vector<ProductionId>& out) const {
  out.clear();
  alphaTree_.search(readingBox, [&](const std::uint64_t& slot) {
    collectAlpha(*alphas_[slot], object, out);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void TriggerNetwork::match(const geo::Rect& readingBox, const std::string& object,
                           std::vector<ProductionId>& out) const {
  out.clear();
  if (!readingBox.empty()) {
    alphaTree_.search(readingBox, [&](const std::uint64_t& slot) {
      collectAlpha(*alphas_[slot], object, out);
    });
  }
  // Exit candidates: productions tracking this object as inside get
  // re-evaluated even when the new evidence no longer touches their region.
  auto insideIt = insideByObject_.find(object);
  if (insideIt != insideByObject_.end()) {
    out.insert(out.end(), insideIt->second.begin(), insideIt->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool TriggerNetwork::isInside(ProductionId id, const std::string& object) const {
  auto it = productions_.find(id);
  return it != productions_.end() && it->second.insideObjects.contains(object);
}

void TriggerNetwork::setInside(ProductionId id, const std::string& object, bool inside) {
  auto it = productions_.find(id);
  if (it == productions_.end()) return;  // removed concurrently with evaluation
  Production& prod = it->second;
  if (inside) {
    if (prod.insideObjects.insert(object).second) {
      insideByObject_[object].insert(id);
      ++insidePairs_;
    }
  } else {
    if (prod.insideObjects.erase(object) > 0) {
      auto objIt = insideByObject_.find(object);
      objIt->second.erase(id);
      if (objIt->second.empty()) insideByObject_.erase(objIt);
      --insidePairs_;
    }
  }
}

void TriggerNetwork::makeCounting(ProductionId id, std::size_t limit) {
  auto it = productions_.find(id);
  require(it != productions_.end(), "TriggerNetwork::makeCounting: unknown production");
  require(!it->second.subject, "TriggerNetwork::makeCounting: counting rules are region-wide");
  require(it->second.insideObjects.empty(),
          "TriggerNetwork::makeCounting: production already has edge state");
  it->second.counting = Counting{limit, 0, false};
  alphas_[it->second.alphaSlot]->counting.push_back(id);
  ++countingProductions_;
}

bool TriggerNetwork::isCounting(ProductionId id) const {
  auto it = productions_.find(id);
  return it != productions_.end() && it->second.counting.has_value();
}

void TriggerNetwork::matchCounting(const geo::Rect& evidenceBox, const std::string& object,
                                   std::vector<ProductionId>& out) const {
  out.clear();
  if (countingProductions_ == 0) return;
  alphaTree_.search(evidenceBox, [&](const std::uint64_t& slot) {
    const std::vector<ProductionId>& counting = alphas_[slot]->counting;
    out.insert(out.end(), counting.begin(), counting.end());
  });
  auto insideIt = insideByObject_.find(object);
  if (insideIt != insideByObject_.end()) {
    for (ProductionId id : insideIt->second) {
      if (productions_.at(id).counting) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

CountUpdate TriggerNetwork::reportCount(ProductionId id) {
  auto it = productions_.find(id);
  if (it == productions_.end()) return {};  // removed concurrently with evaluation
  Production& prod = it->second;
  require(prod.counting.has_value(), "TriggerNetwork::reportCount: not a counting production");
  Counting& counting = *prod.counting;
  CountUpdate update;
  update.count = prod.insideObjects.size();
  update.changed = update.count != counting.lastCount;
  const bool over = update.count >= counting.limit;
  if (over != counting.lastOver) {
    update.edge = over ? CountEdge::Rose : CountEdge::Fell;
  }
  counting.lastCount = update.count;
  counting.lastOver = over;
  return update;
}

std::optional<geo::Rect> TriggerNetwork::regionOf(ProductionId id) const {
  auto it = productions_.find(id);
  if (it == productions_.end()) return std::nullopt;
  return alphas_[it->second.alphaSlot]->region;
}

}  // namespace mw::cq
