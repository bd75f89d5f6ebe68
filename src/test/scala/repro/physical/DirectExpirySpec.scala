package repro.physical

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchRunner
import repro.core.{Dfa, Regex, Rewriter, SgaExpr}
import repro.core.Model.{Edge, Sge, Sgt}
import repro.engine.Engine
import repro.streams.Workloads
import repro.util.{BruteForce, PropertyChecks}
import scala.collection.mutable

/** Direct-mode expiry on generated streams that stress the expiry
  * schedule: equal timestamps, windows that are not a multiple of the
  * slide, slide 1, empty slides and hot vertices. Q1 (`a+`), Q2 (`a∘b*`)
  * and Q3 (`a∘b*∘c*`) cover S-PATH with one label and one final state
  * and with several labels, states and final states; Q5 covers PATTERN.
  * At every slide boundary the answers equal the brute-force snapshot,
  * and after every `advance(now)` the resident state is exactly what a
  * brute-force count of the entries valid past `now` gives, and every
  * S-PATH result carries a path that witnesses it. A second generator
  * moves vertex ids with time, so S-PATH recycles the dense ids of
  * vertices that left the window. The same streams check PATH (Q1–Q3),
  * PATTERN (Q5) and PATH over PATTERN (Q8) in the negative-tuple and
  * differential modes against brute force, and Q6, Q7 and every plan
  * that `Rewriter.plans` derives from Q2, Q3, Q4 and two one-rule seeds
  * in every mode, and that every NT insertion of
  * Q1–Q3 carries a witness. A third generator draws dense single-label
  * streams, cycles and self-loops on six vertices, for Q1, Q8 and
  * `(a a)+` (whose label leads into two DFA states) in every mode.
  */
class DirectExpirySpec extends AnyFunSuite with PropertyChecks {
  import DirectExpirySpec.Case

  private val labels = Seq("a", "b", "c")

  /** Up to 40 edges; `vertexAt(ts)` draws each end of an edge at `ts`. */
  private def genStream(vertexAt: Long => Gen[Long], label: Gen[String] = Gen.oneOf(labels)): Gen[Case] = for {
    slide  <- Gen.oneOf(1L, 2L, 3L, 5L)
    k      <- Gen.choose(1L, 4L)
    rest   <- Gen.choose(0L, slide - 1)
    n      <- Gen.choose(0, 40)
    gaps   <- Gen.listOfN(n, Gen.frequency(6 -> Gen.const(0L), 3 -> Gen.const(1L), 1 -> Gen.choose(2L, 15L)))
    edges  <- Gen.sequence[List[Sge], Sge](gaps.scanLeft(0L)(_ + _).tail.map { at =>
                Gen.zip(vertexAt(at), vertexAt(at), label).map { case (s, t, l) => Sge(s, t, l, at) }
              })
  } yield Case(edges.toVector, k * slide + rest, slide)

  private val genCase: Gen[Case] = genStream(_ => Gen.frequency(3 -> Gen.const(0L), 4 -> Gen.choose(0L, 5L)))

  /** Vertex ids move with time: old vertices leave the window, and S-PATH
    * hands the dense ids they held to new ones.
    */
  private val genChurn: Gen[Case] = genStream(at => Gen.choose(0L, 3L).map(at / 4 + _))

  /** Dense single-label streams: vertices 0–5, every edge labelled `a`. */
  private val genDense: Gen[Case] = genStream(_ => Gen.choose(0L, 5L), Gen.const("a"))

  private val binding = Workloads.Binding("a", "b", "c")

  /** Drives `expr` slide by slide like `Engine.runOn`, checking after each
    * advance that `stateSize` equals `expected(ingested, now)`; then
    * checks the answers against brute force at every slide boundary.
    */
  private def check(q: String, c: Case)(expected: (SgaExpr, Seq[Sge], Long) => Long): Prop = {
    val expr = Workloads.expr(q, binding, c.window, c.slide)
    val df   = PhysicalExec.build(expr, Mode.Direct)
    val in   = c.stream.filter(e => df.relevantLabels(e.label))
    val last = in.lastOption.fold(0L)(_.ts) + c.window + c.slide
    var failure = Option.empty[String]
    var i = 0
    var now = 0L
    while (failure.isEmpty && now <= last) {
      df.advance(now)
      val want = expected(expr, in.take(i), now)
      if (df.stateSize != want)
        failure = Some(s"$q: state ${df.stateSize} after advance($now), brute force $want")
      while (i < in.size && in(i).ts < now + c.slide) { df.ingest(in(i)); i += 1 }
      now += c.slide
    }
    if (failure.isEmpty) failure = divergence(q, expr, Mode.Direct, c, last)
    Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
  }

  /** The first slide boundary up to `last` at which `mode`'s answers for
    * `expr` differ from brute force of `spec` (by default `expr`), if any.
    */
  private def divergence(q: String, expr: SgaExpr, mode: Mode, c: Case, last: Long,
                         spec: Option[SgaExpr] = None): Option[String] = {
    val run  = Engine.run(expr, mode, c.stream, c.slide)
    val want = spec.getOrElse(expr)
    (c.slide - 1 to last by c.slide).find(t => run.snapshotAt(t) != BruteForce.snapshot(want, c.stream, t))
      .map(t => s"$q $mode: answers diverge from brute force at t=$t")
  }

  /** Tuples of `w` ingested and still valid after `now`. */
  private def live(w: SgaExpr.Wscan, ingested: Seq[Sge], now: Long): Seq[Sge] =
    ingested.filter(e => e.label == w.label && w.expiryOf(e.ts) > now)

  test("property: Q1 S-PATH state after each advance is the reachable set of the live window") {
    checkProp(Prop.forAll(genCase)(c => check("Q1", c) { (expr, ingested, now) =>
      // Every live tree node (v, 1) of T_r is a pair (r, v) of the
      // snapshot at `now`; each tree also holds its root.
      val pairs = BruteForce.snapshot(expr, ingested, now)
      pairs.size.toLong + pairs.map(_._1).size
    }))
  }

  /** Δ-PATH of `expr` over the tuples live after `now`: a tree per root
    * with a live edge out of the DFA's start state, holding the root and
    * every `(v, q)` reachable from `(root, start)` in the product graph.
    */
  private def pathNodes(expr: SgaExpr, ingested: Seq[Sge], now: Long): Long = {
    val p     = expr.asInstanceOf[SgaExpr.Path]
    val dfa   = Dfa.fromRegex(p.regex)
    val edges = p.ins.flatMap(in => live(in.asInstanceOf[SgaExpr.Wscan], ingested, now))
    val out   = edges.groupBy(_.src)
    val roots = edges.filter(e => dfa.delta(dfa.start, e.label).nonEmpty).map(_.src).distinct
    roots.map { r =>
      val seen  = mutable.HashSet((r, dfa.start))
      val queue = mutable.Queue((r, dfa.start))
      while (queue.nonEmpty) {
        val (v, q) = queue.dequeue()
        for (e <- out.getOrElse(v, Nil); q2 <- dfa.delta(q, e.label) if seen.add((e.trg, q2)))
          queue.enqueue((e.trg, q2))
      }
      seen.size.toLong
    }.sum
  }

  test("property: Q2 S-PATH state after each advance is the product closure of the live window") {
    checkProp(Prop.forAll(genCase)(c => check("Q2", c)(pathNodes)))
  }

  test("property: Q3 S-PATH state after each advance is the product closure of the live window") {
    checkProp(Prop.forAll(genCase)(c => check("Q3", c)(pathNodes)))
  }

  for (q <- Seq("Q1", "Q2", "Q3"))
    test(s"property: $q S-PATH state and answers hold while vertex ids are recycled") {
      checkProp(Prop.forAll(genChurn)(c => check(q, c)(pathNodes)))
    }

  test("property: Q5 PATTERN state after each advance counts the live input tuples") {
    checkProp(Prop.forAll(genCase)(c => check("Q5", c) { (expr, ingested, now) =>
      // Only input tuples are stored, each once; Q5 has no self-loop atom.
      expr.asInstanceOf[SgaExpr.Pattern].ins
        .map(in => live(in.asInstanceOf[SgaExpr.Wscan], ingested, now).size.toLong).sum
    }))
  }

  /** Why the path of PATH result `r` is not a witness, if it is not: a
    * witness is a non-empty path from `r.src` to `r.trg` whose edges
    * connect end to end, spell a word that `dfa` accepts, and are all
    * `live`.
    */
  private def notWitness(dfa: Dfa, live: Edge => Boolean, r: Sgt): Option[String] = {
    val path = r.path
    if (path.isEmpty) Some("empty path")
    else if (path.head.src != r.src || path.last.trg != r.trg) Some("path does not run from src to trg")
    else if (path.zip(path.tail).exists { case (e, f) => e.trg != f.src }) Some("edges do not connect")
    else if (!dfa.accepts(path.map(_.label))) Some("word not accepted")
    else path.find(e => !live(e)).map(e => s"$e is not live")
  }

  /** Every result of `q` on a stream of `gen` carries a witness path of
    * edges ingested so far whose largest WSCAN expiry is at least the
    * result's.
    */
  private def witnessProp(q: String, gen: Gen[Case]): Prop = Prop.forAll(gen) { c =>
    val expr     = Workloads.expr(q, binding, c.window, c.slide)
    val path     = expr.asInstanceOf[SgaExpr.Path]
    val dfa      = Dfa.fromRegex(path.regex)
    val wscan    = path.ins.head.asInstanceOf[SgaExpr.Wscan] // all inputs share |W| and β
    val df       = PhysicalExec.build(expr, Mode.Direct)
    val ingested = mutable.HashMap.empty[Edge, Long]
    var failure  = Option.empty[String]
    var next     = 0L // the next slide start to advance to
    for (e <- c.stream if failure.isEmpty && df.relevantLabels(e.label)) {
      while (next <= e.ts) { df.advance(next); next += c.slide }
      val edge = Edge(e.src, e.trg, e.label)
      ingested(edge) = ingested.getOrElse(edge, Long.MinValue).max(wscan.expiryOf(e.ts))
      df.ingest(e)
      failure = df.drain().iterator.map(_.sgt)
        .flatMap(r => notWitness(dfa, x => ingested.get(x).exists(_ >= r.exp), r).map(why => s"$q: $why in $r"))
        .nextOption()
    }
    Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
  }

  for (q <- Seq("Q1", "Q2", "Q3")) {
    test(s"property: every $q S-PATH result carries a witness path of live ingested edges") {
      checkProp(witnessProp(q, genCase))
    }
    test(s"property: every $q S-PATH result carries a witness path while vertex ids are recycled") {
      checkProp(witnessProp(q, genChurn))
    }
  }

  /** Every insertion of `q` in NT mode on a stream of `genCase` carries a
    * witness path of edges in the negative-tuple window at its slide: an
    * edge stays there until the slide start that deletes its last
    * instance.
    */
  private def ntWitnessProp(q: String): Prop = Prop.forAll(genCase) { c =>
    val expr      = Workloads.expr(q, binding, c.window, c.slide)
    val path      = expr.asInstanceOf[SgaExpr.Path]
    val dfa       = Dfa.fromRegex(path.regex)
    val wscan     = path.ins.head.asInstanceOf[SgaExpr.Wscan] // all inputs share |W| and β
    val df        = PhysicalExec.build(expr, Mode.NegativeTuple)
    val deletedAt = mutable.HashMap.empty[Edge, Long]
    var failure   = Option.empty[String]
    var next      = 0L // the next slide start to advance to
    for (e <- c.stream if failure.isEmpty && df.relevantLabels(e.label)) {
      while (next <= e.ts) { df.advance(next); next += c.slide }
      val edge = Edge(e.src, e.trg, e.label)
      deletedAt(edge) = deletedAt.getOrElse(edge, Long.MinValue).max(wscan.expiryOf(e.ts) / c.slide * c.slide)
      df.ingest(e)
      val slideStart = next - c.slide
      failure = df.drain().iterator.filter(_.sign == 1).map(_.sgt)
        .flatMap(r => notWitness(dfa, x => deletedAt.get(x).exists(_ > slideStart), r).map(why => s"$q: $why in $r"))
        .nextOption()
    }
    Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
  }

  for (q <- Seq("Q1", "Q2", "Q3"))
    test(s"property: every $q NT insertion carries a witness path of edges in its slide's window") {
      checkProp(ntWitnessProp(q))
    }

  /** The last instant of the slide of `c`'s last edge that `expr` reads:
    * deletions flow only while slides fire.
    */
  private def lastFired(expr: SgaExpr, c: Case): Long =
    c.stream.filter(e => expr.inputLabels(e.label)).lastOption
      .fold(0L)(e => e.ts / c.slide * c.slide + c.slide - 1)

  /** `q`'s plan `plan(c)` in `mode` equals brute force of `spec(c)` (by
    * default of the plan itself) on every stream of `gen`: at every slide
    * boundary that fires under negative tuples, and under direct expiry
    * also at every later one until the window is empty.
    */
  private def agrees(q: String, mode: Mode, gen: Gen[Case], spec: Option[Case => SgaExpr] = None)
                    (plan: Case => SgaExpr): Prop =
    Prop.forAll(gen) { c =>
      val expr    = plan(c)
      val last    =
        if (mode == Mode.Direct) c.stream.lastOption.fold(0L)(_.ts) + c.window + c.slide
        else lastFired(expr, c)
      val failure = divergence(q, expr, mode, c, last, spec.map(_(c)))
      Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
    }

  private val modes = Seq(Mode.Direct, Mode.NegativeTuple, Mode.Differential)

  for (q <- Seq("Q1", "Q2", "Q3", "Q5", "Q8"); mode <- Seq(Mode.NegativeTuple, Mode.Differential))
    test(s"property: $q in $mode mode equals brute force at every slide boundary") {
      checkProp(agrees(q, mode, genCase)(c => Workloads.expr(q, binding, c.window, c.slide)))
    }

  /** Seeds of the rewrite rules, over `(window, slide)`: Q2 and Q3 (star
    * expansion), Q4 (fold and factor), and one-rule PATHs for rules
    * "Alternation" and "Concatenation". Each plan that `Rewriter.plans`
    * derives from a seed must give the seed's brute-force answers, which
    * checks the rule as well as the engine. Canonical Q2 and Q3 run in
    * every mode above, so only their alternatives run here.
    */
  private val ruleSeeds: Seq[(String, (Long, Long) => SgaExpr)] = {
    def path(regex: String)(size: Long, slide: Long) =
      SgaExpr.Path(List(SgaExpr.Wscan("a", size, slide), SgaExpr.Wscan("b", size, slide)), Regex.parse(regex), "Answer")
    Seq("Q2" -> (Workloads.expr("Q2", binding, _, _)), "Q3" -> (Workloads.expr("Q3", binding, _, _)),
        "Q4" -> (Workloads.expr("Q4", binding, _, _)), "P_{a|b}" -> path("a | b"), "P_{a b}" -> path("a b"))
  }

  for ((q, seed) <- ruleSeeds; n = Rewriter.plans(seed(1, 1)).size;
       i <- 0 until n if i > 0 || !Set("Q2", "Q3")(q); mode <- modes) {
    val plan = BenchRunner.planName(i, n)
    test(s"property: $q plan $plan in $mode mode equals brute force at every slide boundary") {
      checkProp(agrees(s"$q/$plan", mode, genCase, Some(c => seed(c.window, c.slide)))(
        c => Rewriter.plans(seed(c.window, c.slide))(i)))
    }
  }

  for (q <- Seq("Q6", "Q7"); mode <- modes)
    test(s"property: $q in $mode mode equals brute force at every slide boundary") {
      checkProp(agrees(q, mode, genCase)(c => Workloads.expr(q, binding, c.window, c.slide)))
    }

  /** `(a a)+` over WSCAN `a`: the label `a` leads into two DFA states. */
  private def evenA(c: Case): SgaExpr =
    SgaExpr.Path(List(SgaExpr.Wscan("a", c.window, c.slide)), Regex.parse("(a a)+"), "aa")

  private val densePlans: Seq[(String, Case => SgaExpr)] = Seq(
    "Q1"     -> (c => Workloads.expr("Q1", binding, c.window, c.slide)),
    "Q8"     -> (c => Workloads.expr("Q8", binding, c.window, c.slide)),
    "(a a)+" -> evenA)

  for ((q, plan) <- densePlans; mode <- modes)
    test(s"property: $q on dense single-label streams in $mode mode equals brute force at every slide boundary") {
      checkProp(agrees(q, mode, genDense)(plan))
    }

  test("a deletion under one label into two DFA states is repaired in every mode") {
    // At t = 2 only 3->0 and 2->0 are in the window, so no even a-path is
    // left. Each deletion must repair the tuples that `a` derived into
    // both of its target states, even after repairing one retracted the
    // source tuple of the other.
    val c = Case(Vector(Sge(0, 1, "a", 0), Sge(1, 3, "a", 0), Sge(3, 0, "a", 1), Sge(2, 0, "a", 2)), window = 2, slide = 1)
    assert(BruteForce.snapshot(evenA(c), c.stream, 2).isEmpty)
    for (mode <- modes)
      assert(divergence("(a a)+", evenA(c), mode, c, lastFired(evenA(c), c)).isEmpty, s"$mode")
  }

  test("long chains whose head expires mid-stream equal brute force in every mode") {
    // 0 -> 1 -> ... -> 59 arrives one edge per instant, then 59 -> 0 closes
    // a cycle through the head's vertex after the head edge expired. Q1
    // reads an a-chain; Q3 an a-b*-c* chain, whose results all go with
    // the a-edge.
    val a  = (0 until 59).map(i => Sge(i, i + 1, "a", i)) :+ Sge(59, 0, "a", 59)
    val bc = (0 until 59).map(i => Sge(i, i + 1, if (i == 0) "a" else if (i < 30) "b" else "c", i))
    for ((q, stream) <- Seq("Q1" -> a, "Q3" -> bc); mode <- Seq(Mode.Direct, Mode.NegativeTuple, Mode.Differential)) {
      val c    = Case(stream.toVector, window = 25, slide = 2)
      val expr = Workloads.expr(q, binding, c.window, c.slide)
      assert(divergence(q, expr, mode, c, lastFired(expr, c)).isEmpty)
    }
  }

  test("a dense clique whose entry edge expires mid-stream equals brute force in every mode") {
    // r -> 0 arrives first and enters K_12 of `a` edges, which arrive over
    // instants 1-10 and are re-sent every 10 instants, so the clique stays
    // live while the entry edge expires at t = 15. Then no tuple of r's
    // tree is derivable, though each sits on cycles of the clique.
    val (m, r) = (12L, 12L)
    val clique = for (k <- 0L until 4L; i <- 0L until m; j <- 0L until m if i != j)
      yield Sge(i, j, "a", 1 + 10 * k + (i * m + j) % 10)
    val c = Case((Sge(r, 0L, "a", 0L) +: clique.sortBy(_.ts)).toVector, window = 15, slide = 2)
    for ((q, plan) <- densePlans.filterNot(_._1 == "Q8"); mode <- modes) {
      val expr = plan(c)
      val last = if (mode == Mode.Direct) c.stream.last.ts + c.window + c.slide else lastFired(expr, c)
      assert(divergence(q, expr, mode, c, last).isEmpty, s"$q $mode")
    }
  }

  test("negative-tuple modes reject a window shorter than its slide") {
    val expr = Workloads.expr("Q5", binding, 2, 5)
    for (mode <- Seq(Mode.NegativeTuple, Mode.Differential))
      intercept[IllegalArgumentException](PhysicalExec.build(expr, mode))
    PhysicalExec.build(expr, Mode.Direct) // no deletions to schedule
  }
}

object DirectExpirySpec {
  private final case class Case(stream: Vector[Sge], window: Long, slide: Long)
}
