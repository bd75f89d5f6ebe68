package repro.core

import scala.collection.mutable

/** Canonical translation of a Streaming Graph Query — an RQ program plus a
  * time-based sliding window — into an SGA expression (paper §5.2,
  * Algorithm SGQParser, Theorem 7).
  *
  * Bottom-up over the topological order of the dependency graph:
  * every EDB label becomes a WSCAN, every transitive-closure atom a PATH,
  * every rule body a PATTERN, and multiple rules with one head a UNION.
  */
object SgqParser {

  /** Translate `program` evaluated over a sliding window of `windowSize`
    * time units progressing every `slide` units.
    */
  def parse(program: Rq.Program, windowSize: Long, slide: Long = 1L): SgaExpr = {
    require(program.isNonRecursive, "RQ programs must be non-recursive (paper Def. 14)")
    val order = program.topologicalOrder.get

    val exp = mutable.Map.empty[String, SgaExpr]
    for (l <- program.edbLabels)
      exp(l) = SgaExpr.Wscan(l, windowSize, slide)

    val rulesByHead = program.rules.groupBy(_.head)
    // `order` lists each predicate after everything it depends on.
    for (pred <- order if rulesByHead.contains(pred)) {
      val alternatives = rulesByHead(pred).map(rule => translateRule(rule, exp))
      exp(pred) =
        if (alternatives.size == 1 && alternatives.head.outLabel == pred) alternatives.head
        else SgaExpr.Union(alternatives, pred)
    }
    exp(Rq.AnswerPredicate)
  }

  /** Translate one rule body into a PATTERN (plus PATHs for closures). */
  private def translateRule(rule: Rq.Rule, exp: mutable.Map[String, SgaExpr]): SgaExpr = {
    // Inputs: one streaming graph per body atom; closures wrap the input
    // in a PATH with a Kleene plus (paper Alg. SGQParser line 9).
    val inputs: List[SgaExpr] = rule.body.map { atom =>
      val base = exp.getOrElse(atom.label,
        throw new IllegalArgumentException(s"unknown predicate '${atom.label}' in ${rule.render}"))
      atom.closureAs.fold(base)(d =>
        exp.getOrElseUpdate(d, SgaExpr.Path(List(base), Regex.Plus(Regex.Lbl(atom.label)), d)))
    }

    // Positional equality predicates from shared variables (GenPred).
    val positions: Seq[(String, SgaExpr.Pos)] = rule.body.zipWithIndex.flatMap { case (atom, i) =>
      Seq(atom.src -> SgaExpr.src(i), atom.trg -> SgaExpr.trg(i))
    }
    val equalities = positions.groupBy(_._1).valuesIterator.flatMap { occ =>
      val ps = occ.map(_._2)
      ps.tail.map(p => (ps.head, p))
    }.toList

    def firstPos(v: String): SgaExpr.Pos =
      positions.collectFirst { case (`v`, p) => p }
        .getOrElse(throw new IllegalArgumentException(s"head variable '$v' not in body of ${rule.render}"))

    SgaExpr.Pattern(inputs, equalities, firstPos(rule.headSrc), firstPos(rule.headTrg), rule.head)
  }
}
