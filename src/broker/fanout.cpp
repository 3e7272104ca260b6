#include "broker/fanout.h"

#include <algorithm>
#include <cassert>

#include "message/message.h"

namespace bdps {

void FanOutGrouper::bind(std::vector<LinkRef> links) {
  assert(std::is_sorted(links.begin(), links.end(),
                        [](const LinkRef& a, const LinkRef& b) {
                          return a.neighbor < b.neighbor;
                        }));
  groups_.clear();
  groups_.reserve(links.size());
  for (const LinkRef& link : links) {
    groups_.push_back(FanOutGroup{link.neighbor, link.edge, {}});
  }
}

void FanOutGrouper::group(
    const std::vector<const SubscriptionEntry*>& matched,
    const Message& message) {
  local_.clear();
  for (FanOutGroup& group : groups_) {
    group.targets.clear();
  }
  for (const SubscriptionEntry* entry : matched) {
    assert(!entry->disabled && "match_at returns enabled rows only");
    if (!entry->serves_publisher(message.publisher())) continue;
    if (!entry->subscription->active_at(message.publish_time())) continue;
    if (entry->is_local()) {
      local_.push_back(entry);
    } else {
      const auto slot = std::lower_bound(
          groups_.begin(), groups_.end(), entry->next_hop,
          [](const FanOutGroup& group, BrokerId id) {
            return group.neighbor < id;
          });
      assert(slot != groups_.end() && slot->neighbor == entry->next_hop);
      slot->targets.push_back(entry);
    }
  }
}

}  // namespace bdps
