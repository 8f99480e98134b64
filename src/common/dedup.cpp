#include "common/dedup.h"

namespace rpm {

bool dedup_accept(DedupState& st, std::uint64_t seq) {
  if (st.seen.contains(seq) ||
      (st.max_seq > kDedupWindow && seq < st.max_seq - kDedupWindow)) {
    return false;
  }
  st.seen.insert(seq);
  if (seq > st.max_seq) {
    st.max_seq = seq;
    // Slide the window: forget seqs that can no longer arrive as fresh.
    if (st.max_seq > kDedupWindow) {
      const std::uint64_t floor = st.max_seq - kDedupWindow;
      std::erase_if(st.seen, [floor](std::uint64_t s) { return s < floor; });
    }
  }
  return true;
}

}  // namespace rpm
