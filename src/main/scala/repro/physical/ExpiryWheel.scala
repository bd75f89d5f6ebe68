package repro.physical

import scala.collection.mutable

/** The expiry schedule of an operator: a timing wheel (Varghese & Lauck,
  * SOSP 1987) whose buckets hold items keyed by expiry timestamp and come
  * due, in timestamp order, once the window passes them. WSCAN expiries
  * are slide-aligned (Def. 16), so a window holds one bucket per slide
  * boundary.
  *
  * Owners schedule lazily: an item sits in one bucket whose key is at
  * most its current expiry. An owner whose item's expiry grows leaves it
  * where it is; when the bucket comes due, the owner re-checks the item
  * and schedules it again at its new expiry instead of dropping it. So
  * memory stays O(items), and [[due]] costs O(items whose bucket came
  * due) — expired state is found directly, never by a scan (paper §6.2).
  */
final class ExpiryWheel[A] {
  // Buckets are found by hash; a min-heap orders their keys.
  private val buckets = mutable.LongMap.empty[mutable.ArrayBuffer[A]]
  private val keys    = mutable.PriorityQueue.empty[Long](Ordering.Long.reverse)

  def schedule(exp: Long, item: A): Unit = {
    var b = buckets.getOrNull(exp)
    if (b == null) {
      b = mutable.ArrayBuffer.empty[A]
      buckets(exp) = b
      keys += exp
    }
    b += item
  }

  /** Removes every bucket keyed at or before `now` and returns its items
    * in expiry order. Items the caller schedules again while iterating
    * must be due after `now`.
    */
  def due(now: Long): Iterator[A] = {
    val ready = mutable.ListBuffer.empty[mutable.ArrayBuffer[A]]
    var b = nextDue(now)
    while (b != null) { ready += b; b = nextDue(now) }
    ready.iterator.flatten
  }

  /** Removes the earliest bucket keyed at or before `now` and returns it,
    * or null if none is due: [[due]] for callers that loop over buckets
    * by index. Items scheduled again meanwhile must be due after `now`.
    */
  def nextDue(now: Long): mutable.ArrayBuffer[A] =
    if (keys.isEmpty || keys.head > now) null
    else buckets.remove(keys.dequeue()).get
}
