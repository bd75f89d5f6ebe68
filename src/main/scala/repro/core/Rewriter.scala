package repro.core

import scala.collection.mutable

/** SGA transformation rules (paper §5.4) and the plan space of §7.4 they
  * span. The WSCAN rules `W(σ(S)) = σ(W(S))` and `W(S1 ∪ S2) = W(S1) ∪
  * W(S2)` act on raw input streams, which are not expressions here (WSCAN
  * is the leaf), so tests check them behaviourally. The PATH rules take
  * SGQParser's canonical Q4 to P1 (fold) and P2, P3 (factor) of Fig. 8,
  * and Q2, Q3 to Fig. 9's alternatives (star expansion).
  */
object Rewriter {

  /** `e` first, then every plan reachable from it by rewriting one node at
    * a time, each expression once, in breadth-first order. A plan reached
    * in two orders (disjoint factors of a closure of four or more labels)
    * is listed once per order, under other derived labels.
    */
  def plans(e: SgaExpr): List[SgaExpr] = {
    val seen  = mutable.LinkedHashSet(e)
    val queue = mutable.Queue(e)
    while (queue.nonEmpty) {
      val p = queue.dequeue()
      for (q <- rewrites(p, labels(p)) if seen.add(q)) queue.enqueue(q)
    }
    seen.toList
  }

  /** One rule applied at one node of `e`, in every way; `used` holds the
    * labels of the whole plan, which a fresh label avoids. */
  private def rewrites(e: SgaExpr, used: Set[String]): List[SgaExpr] = {
    val (ins, rebuild) = split(e)
    val here = e match { case p: SgaExpr.Path => pathRules(p, used); case _ => Nil }
    here ++ ins.indices.flatMap(i => rewrites(ins(i), used).map(r => rebuild(ins.updated(i, r))))
  }

  /** The rewrites of PATH `p` itself. */
  private def pathRules(p: SgaExpr.Path, used: Set[String]): List[SgaExpr] = {
    val SgaExpr.Path(ins, regex, d) = p
    val input = ins.map(i => i.outLabel -> i).toMap
    regex match {
      // Rule "Alternation": P_{a|b}(S_a, S_b) = ∪(S_a, S_b).
      case Regex.Alt(Labels(ls)) => List(SgaExpr.Union(ls.map(input), d))

      // Rule "Concatenation": P_{a·b}(S_a, S_b) = ⋈_{trg1=src2}(S_a, S_b).
      case Regex.Concat(Labels(ls)) => List(SgaExpr.chain(ls.map(input), d))

      // Star expansion: every layer matches non-empty paths only, so
      // a∘b1*∘…∘bk* is the UNION, over the subsets of the bi, of the chains
      // a ⋈ bi⁺ ⋈ … (a alone for the empty subset).
      case Regex.Concat(Regex.Lbl(a) :: Starred(bs)) if bs.nonEmpty =>
        val fresh = freshLabels(used)
        val plus  = bs.distinct.map(b => b -> SgaExpr.Path(List(input(b)), Regex.Plus(Regex.Lbl(b)), fresh.next())).toMap
        val terms = (0 until 1 << bs.size).toList.map { subset =>
          val picked = bs.indices.filter(i => (subset >> i & 1) == 1).map(i => plus(bs(i))).toList
          if (picked.isEmpty) input(a) else SgaExpr.chain(input(a) :: picked, fresh.next())
        }
        List(SgaExpr.Union(terms, d))

      case Regex.Plus(body) =>
        // Fold: P_{d+} over a linear PATTERN d = l1·…·ln with distinct
        // labels is P_{(l1·…·ln)+}(S_l1, …, S_ln).
        val fold = ins match {
          case List(q: SgaExpr.Pattern) if body == Regex.Lbl(q.label) && isLinearChain(q) &&
                                           q.ins.map(_.outLabel).distinct.size == q.ins.size =>
            List(SgaExpr.Path(q.ins, Regex.Plus(Regex.Concat(q.ins.map(i => Regex.Lbl(i.outLabel)))), d))
          case _ => Nil
        }
        // Factor: a proper sub-run of at least two labels of (l1·…·ln)+
        // becomes a chain PATTERN under a fresh label, read by the closure
        // through rule "Concatenation". Sub-runs are taken right to left,
        // so that Q4's come out in Fig. 8's order P2, P3.
        val factors = body match {
          case Regex.Concat(Labels(ls)) =>
            for (len <- (2 until ls.size).toList; i <- (ls.size - len to 0 by -1).toList) yield {
              val f     = freshLabels(used).next()
              val parts = ls.take(i) ++ (f :: ls.drop(i + len))
              val in    = input + (f -> SgaExpr.chain(ls.slice(i, i + len).map(input), f))
              SgaExpr.Path(parts.distinct.map(in), Regex.Plus(Regex.Concat(parts.map(Regex.Lbl))), d)
            }
          case _ => Nil
        }
        fold ++ factors

      case _ => Nil
    }
  }

  /** Whether a PATTERN is the chain join of rule "Concatenation", with its
    * equalities in any order and orientation (SGQParser's are not ordered). */
  def isLinearChain(p: SgaExpr.Pattern): Boolean = {
    val n = p.ins.size
    val expected = (0 until n - 1).map(i => Set(SgaExpr.trg(i): Any, SgaExpr.src(i + 1): Any)).toSet
    val actual   = p.equalities.map { case (a, b) => Set(a: Any, b: Any) }.toSet
    actual == expected && p.outSrc == SgaExpr.src(0) && p.outTrg == SgaExpr.trg(n - 1)
  }

  /** The labels of regexes that are all single labels (`Labels`) or all
    * starred single labels (`Starred`).
    */
  private final class Each(label: PartialFunction[Regex, String]) {
    def unapply(rs: List[Regex]): Option[List[String]] = Some(rs.collect(label)).filter(_.size == rs.size)
  }
  private val Labels  = new Each({ case Regex.Lbl(l) => l })
  private val Starred = new Each({ case Regex.Star(Regex.Lbl(l)) => l })

  /** The inputs of `e`, and `e` rebuilt over other inputs. */
  private def split(e: SgaExpr): (List[SgaExpr], List[SgaExpr] => SgaExpr) = e match {
    case _: SgaExpr.Wscan                 => (Nil, _ => e)
    case SgaExpr.Filter(in, p)            => (List(in), ins => SgaExpr.Filter(ins.head, p))
    case SgaExpr.Union(ins, d)            => (ins, SgaExpr.Union(_, d))
    case SgaExpr.Pattern(ins, q, s, t, d) => (ins, SgaExpr.Pattern(_, q, s, t, d))
    case SgaExpr.Path(ins, r, d)          => (ins, SgaExpr.Path(_, r, d))
  }

  /** Every label that a node of `e` produces. */
  private def labels(e: SgaExpr): Set[String] = split(e)._1.flatMap(labels).toSet + e.outLabel

  /** Labels `d`, `d1`, `d2`, … that are not in `used`, for derived streams. */
  private def freshLabels(used: Set[String]): Iterator[String] =
    Iterator.from(0).map(i => if (i == 0) "d" else s"d$i").filterNot(used)
}
