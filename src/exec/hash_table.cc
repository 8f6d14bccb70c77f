#include "exec/hash_table.h"

#include <string>

#include "common/metrics.h"
#include "exec/trace.h"

namespace x100 {

namespace {

// Chained-impl cursor sentinel: bucket head not consulted yet (0 is "end of
// chain", entry indices are stored +1).
constexpr uint32_t kFreshChain = 0xFFFFFFFFu;

constexpr size_t kMinCapacity = 64;

}  // namespace

const char* HashImplName(HashImpl impl) {
  switch (impl) {
    case HashImpl::kChained:
      return "chained";
    case HashImpl::kLinear:
      return "linear";
  }
  return "?";
}

HashTable::HashTable(HashImpl impl) : impl_(impl) { Reset(0); }

void HashTable::Reset(size_t expected) {
  entries_.clear();
  next_.clear();
  entries_count_ = 0;
  capacity_ = 0;  // forces a fresh Rebuild, not counted as a grow
  EnsureCapacity(expected);
}

void HashTable::Reserve(size_t extra) {
  EnsureCapacity(entries_count_ + extra);
}

void HashTable::EnsureCapacity(size_t total_entries) {
  size_t cap = capacity_ < kMinCapacity ? kMinCapacity : capacity_;
  auto too_full = [&](size_t c) {
    switch (impl_) {
      case HashImpl::kChained:
        return total_entries > c;  // ~1 entry per bucket
      case HashImpl::kLinear:
        return total_entries * 8 >= c * 7;  // 7/8 load ceiling
    }
    return false;
  };
  while (too_full(cap)) cap <<= 1;
  if (cap == capacity_) return;
  if (entries_count_ > 0) stats_.grows++;
  Rebuild(cap);
}

void HashTable::Rebuild(size_t new_capacity) {
  capacity_ = new_capacity;
  mask_ = capacity_ - 1;
  switch (impl_) {
    case HashImpl::kChained:
      heads_.assign(capacity_, 0);
      next_.assign(entries_count_, 0);
      for (uint32_t e = 0; e < entries_count_; e++) {
        size_t b = entries_[e].hash & mask_;
        next_[e] = heads_[b];
        heads_[b] = e + 1;
      }
      return;
    case HashImpl::kLinear:
      slots_.assign(capacity_, Slot{0, 0});
      for (uint32_t e = 0; e < entries_count_; e++) {
        size_t i = HomeSlot(entries_[e].hash);
        while (slots_[i].entry1 != 0) i = (i + 1) & mask_;
        slots_[i] = Slot{Tag(entries_[e].hash), e + 1};
      }
      return;
  }
}

uint32_t HashTable::NewEntry(uint64_t h, uint32_t value) {
  entries_.push_back(Entry{h, value});
  stats_.inserts++;
  return static_cast<uint32_t>(entries_count_++);
}

void HashTable::ProbeBegin(Probe* p, const uint64_t* hashes, const int* sel,
                           int n) {
  if (static_cast<int>(p->hash_.size()) < n) {
    p->hash_.resize(n);
    p->result_.resize(n);
    p->result_entry_.resize(n);
    p->cursor_.resize(n);
    p->phase_.resize(n);
  }
  p->n_ = n;
  p->active_.clear();
  p->cand_lane_.clear();
  p->cand_entry_.clear();
  for (int j = 0; j < n; j++) {
    uint64_t h = hashes[sel != nullptr ? sel[j] : j];
    p->hash_[j] = h;
    p->result_[j] = kNone;
    p->result_entry_[j] = kNone;
    p->phase_[j] = 0;
    switch (impl_) {
      case HashImpl::kChained:
        p->cursor_[j] = kFreshChain;
        break;
      case HashImpl::kLinear:
        p->cursor_[j] = static_cast<uint32_t>(HomeSlot(h));
        break;
    }
    p->active_.push_back(j);
  }
  stats_.probes += static_cast<uint64_t>(n);
}

int HashTable::ProbeRound(Probe* p) {
  p->cand_lane_.clear();
  p->cand_entry_.clear();
  if (p->active_.empty()) return 0;
  stats_.probe_rounds++;
  switch (impl_) {
    case HashImpl::kChained:
      return RoundChained(p);
    case HashImpl::kLinear:
      return RoundLinear(p);
  }
  return 0;
}

int HashTable::RoundLinear(Probe* p) {
  const int na = static_cast<int>(p->active_.size());
  for (int k = 0; k < na; k++) {
    if (k + kPrefetchDist < na) {
      __builtin_prefetch(&slots_[p->cursor_[p->active_[k + kPrefetchDist]]]);
    }
    int lane = p->active_[k];
    uint64_t h = p->hash_[lane];
    uint32_t tag = Tag(h);
    size_t i = p->cursor_[lane];
    for (;;) {
      const Slot& s = slots_[i];
      stats_.slot_scans++;
      if (s.entry1 == 0) {
        p->cursor_[lane] = static_cast<uint32_t>(i);  // InsertMiss claims here
        break;
      }
      if (s.tag == tag && entries_[s.entry1 - 1].hash == h) {
        p->cursor_[lane] = static_cast<uint32_t>((i + 1) & mask_);
        p->cand_lane_.push_back(lane);
        p->cand_entry_.push_back(s.entry1 - 1);
        stats_.candidates++;
        break;
      }
      i = (i + 1) & mask_;
    }
  }
  p->active_.clear();
  return p->cand_count();
}

int HashTable::RoundChained(Probe* p) {
  const int na = static_cast<int>(p->active_.size());
  for (int k = 0; k < na; k++) {
    if (k + kPrefetchDist < na) {
      int ahead = p->active_[k + kPrefetchDist];
      uint32_t c = p->cursor_[ahead];
      if (c == kFreshChain) {
        __builtin_prefetch(&heads_[p->hash_[ahead] & mask_]);
      } else if (c != 0) {
        __builtin_prefetch(&entries_[c - 1]);
      }
    }
    int lane = p->active_[k];
    uint64_t h = p->hash_[lane];
    uint32_t ptr = p->cursor_[lane];
    if (ptr == kFreshChain) ptr = heads_[h & mask_];
    while (ptr != 0) {
      uint32_t e = ptr - 1;
      stats_.slot_scans++;
      if (entries_[e].hash == h) {
        p->cursor_[lane] = next_[e];
        p->cand_lane_.push_back(lane);
        p->cand_entry_.push_back(e);
        stats_.candidates++;
        break;
      }
      ptr = next_[e];
    }
    if (ptr == 0) p->cursor_[lane] = 0;  // chain drained: miss
  }
  p->active_.clear();
  return p->cand_count();
}

bool HashTable::InsertMiss(Probe* p, int lane, uint32_t value,
                           uint32_t* cand_entry) {
  switch (impl_) {
    case HashImpl::kChained:
      return InsertMissChained(p, lane, value, cand_entry);
    case HashImpl::kLinear:
      return InsertMissLinear(p, lane, value, cand_entry);
  }
  return false;
}

bool HashTable::InsertMissLinear(Probe* p, int lane, uint32_t value,
                                 uint32_t* cand_entry) {
  // The lane's cursor sits on the empty slot its scan drained at. Earlier
  // miss lanes of this batch may have claimed it (or slots beyond it), so
  // keep scanning: a full-hash match is a candidate the caller key-checks.
  uint64_t h = p->hash_[lane];
  uint32_t tag = Tag(h);
  size_t i = p->cursor_[lane];
  for (;;) {
    Slot& s = slots_[i];
    if (s.entry1 == 0) {
      uint32_t e = NewEntry(h, value);
      s = Slot{tag, e + 1};
      return true;
    }
    stats_.slot_scans++;
    if (s.tag == tag && entries_[s.entry1 - 1].hash == h) {
      *cand_entry = s.entry1 - 1;
      p->cursor_[lane] = static_cast<uint32_t>((i + 1) & mask_);
      stats_.candidates++;
      return false;
    }
    i = (i + 1) & mask_;
  }
}

bool HashTable::InsertMissChained(Probe* p, int lane, uint32_t value,
                                  uint32_t* cand_entry) {
  // New entries are pushed at the bucket head, so the scalar pass restarts
  // the chain walk once (phase_ flags it) to see this batch's inserts.
  uint64_t h = p->hash_[lane];
  size_t b = h & mask_;
  uint32_t ptr = p->cursor_[lane];
  if (p->phase_[lane] == 0) {
    ptr = heads_[b];
    p->phase_[lane] = 1;
  }
  while (ptr != 0) {
    uint32_t e = ptr - 1;
    stats_.slot_scans++;
    if (entries_[e].hash == h) {
      *cand_entry = e;
      p->cursor_[lane] = next_[e];
      stats_.candidates++;
      return false;
    }
    ptr = next_[e];
  }
  uint32_t e = NewEntry(h, value);
  next_.push_back(heads_[b]);
  heads_[b] = e + 1;
  return true;
}

void HashTable::PublishStats(TraceNode* node) {
  HashTableStats d;
  d.probes = stats_.probes - published_.probes;
  d.probe_rounds = stats_.probe_rounds - published_.probe_rounds;
  d.slot_scans = stats_.slot_scans - published_.slot_scans;
  d.candidates = stats_.candidates - published_.candidates;
  d.key_rejects = stats_.key_rejects - published_.key_rejects;
  d.inserts = stats_.inserts - published_.inserts;
  d.grows = stats_.grows - published_.grows;
  published_ = stats_;

  MetricsRegistry& reg = MetricsRegistry::Get();
  std::string prefix = std::string("ht.") + HashImplName(impl_) + ".";
  reg.GetCounter(prefix + "probes")->Add(d.probes);
  reg.GetCounter(prefix + "slot_scans")->Add(d.slot_scans);
  reg.GetCounter(prefix + "key_rejects")->Add(d.key_rejects);
  reg.GetCounter(prefix + "inserts")->Add(d.inserts);
  reg.GetCounter(prefix + "grows")->Add(d.grows);

  if (node == nullptr) return;
  node->AddCounter(std::string("ht.") + HashImplName(impl_), 1);
  node->AddCounter("ht.probes", d.probes);
  node->AddCounter("ht.probe_rounds", d.probe_rounds);
  node->AddCounter("ht.slot_scans", d.slot_scans);
  node->AddCounter("ht.candidates", d.candidates);
  node->AddCounter("ht.key_rejects", d.key_rejects);
  node->AddCounter("ht.inserts", d.inserts);
  node->AddCounter("ht.grows", d.grows);
}

}  // namespace x100
