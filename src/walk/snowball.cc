#include "src/walk/snowball.h"

namespace mto {

SnowballCrawler::SnowballCrawler(RestrictedInterface& interface, Rng& rng,
                                 NodeId seed)
    : Sampler(interface, rng, seed),
      enqueued_(interface.num_users(), false) {
  frontier_.push_back(seed);
  enqueued_[seed] = true;
}

NodeId SnowballCrawler::Step() {
  if (frontier_.empty()) return current();
  NodeId next = frontier_.front();
  auto r = interface().QueryRef(next);
  if (!r) return current();  // budget exhausted; retry later
  frontier_.pop_front();
  ++visited_;
  for (NodeId w : r->neighbors) {
    if (!enqueued_[w]) {
      enqueued_[w] = true;
      frontier_.push_back(w);
    }
  }
  set_current(next);
  return next;
}

double SnowballCrawler::CurrentDegreeForDiagnostic() {
  auto r = interface().QueryRef(current());
  return r ? static_cast<double>(r->degree()) : 0.0;
}

}  // namespace mto
