package repro.physical

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dfa, SgaExpr}
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
  * S-PATH result carries a path that witnesses it. The same
  * streams check PATTERN (Q5) and PATH over PATTERN (Q8) in the
  * negative-tuple and differential modes against brute force.
  */
class DirectExpirySpec extends AnyFunSuite with PropertyChecks {

  private final case class Case(stream: Vector[Sge], window: Long, slide: Long)

  private val labels = Seq("a", "b", "c")

  private val genCase: Gen[Case] = for {
    slide  <- Gen.oneOf(1L, 2L, 3L, 5L)
    k      <- Gen.choose(1L, 4L)
    rest   <- Gen.choose(0L, slide - 1)
    n      <- Gen.choose(0, 40)
    gaps   <- Gen.listOfN(n, Gen.frequency(6 -> Gen.const(0L), 3 -> Gen.const(1L), 1 -> Gen.choose(2L, 15L)))
    vertex  = Gen.frequency(3 -> Gen.const(0L), 4 -> Gen.choose(0L, 5L))
    edges  <- Gen.listOfN(n, Gen.zip(vertex, vertex, Gen.oneOf(labels)))
  } yield {
    val ts = gaps.scanLeft(0L)(_ + _).tail
    Case(edges.zip(ts).map { case ((s, t, l), at) => Sge(s, t, l, at) }.toVector, k * slide + rest, slide)
  }

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

  /** The first slide boundary up to `last` at which `mode`'s answers
    * differ from brute force, if any.
    */
  private def divergence(q: String, expr: SgaExpr, mode: Mode, c: Case, last: Long): Option[String] = {
    val run = Engine.run(expr, mode, c.stream, c.slide)
    (c.slide - 1 to last by c.slide).find(t => run.snapshotAt(t) != BruteForce.snapshot(expr, c.stream, t))
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

  test("property: Q5 PATTERN state after each advance counts the live input tuples") {
    checkProp(Prop.forAll(genCase)(c => check("Q5", c) { (expr, ingested, now) =>
      // Only input tuples are stored, each once; Q5 has no self-loop atom.
      expr.asInstanceOf[SgaExpr.Pattern].ins
        .map(in => live(in.asInstanceOf[SgaExpr.Wscan], ingested, now).size.toLong).sum
    }))
  }

  /** Why the path of PATH result `r` is not a witness, if it is not: a
    * witness is a non-empty path from `r.src` to `r.trg` whose edges
    * connect end to end, spell a word that `dfa` accepts, and are all in
    * `ingested` (each edge ingested so far, to its largest WSCAN expiry)
    * with an expiry of at least `r.exp`.
    */
  private def notWitness(dfa: Dfa, ingested: collection.Map[Edge, Long], r: Sgt): Option[String] = {
    val path = r.path
    if (path.isEmpty) Some("empty path")
    else if (path.head.src != r.src || path.last.trg != r.trg) Some("path does not run from src to trg")
    else if (path.zip(path.tail).exists { case (e, f) => e.trg != f.src }) Some("edges do not connect")
    else if (!path.foldLeft(Option(dfa.start))((s, e) => s.flatMap(dfa.delta(_, e.label))).exists(dfa.finals))
      Some("word not accepted")
    else path.find(e => ingested.get(e).forall(_ < r.exp)).map(e => s"$e is not ingested valid until ${r.exp}")
  }

  for (q <- Seq("Q1", "Q2", "Q3"))
    test(s"property: every $q S-PATH result carries a witness path of live ingested edges") {
      checkProp(Prop.forAll(genCase) { c =>
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
            .flatMap(r => notWitness(dfa, ingested, r).map(why => s"$q: $why in $r"))
            .nextOption()
        }
        Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
      })
    }

  for (q <- Seq("Q5", "Q8"); mode <- Seq(Mode.NegativeTuple, Mode.Differential))
    test(s"property: $q in $mode mode equals brute force at every slide boundary") {
      checkProp(Prop.forAll(genCase) { c =>
        val expr = Workloads.expr(q, binding, c.window, c.slide)
        // Deletions flow only while slides fire: up to the slide of the
        // last relevant edge.
        val last = c.stream.filter(e => expr.inputLabels(e.label)).lastOption
          .fold(0L)(e => e.ts / c.slide * c.slide + c.slide - 1)
        val failure = divergence(q, expr, mode, c, last)
        Prop(failure.isEmpty) :| s"${failure.getOrElse("")}; $c"
      })
    }

  test("negative-tuple modes reject a window shorter than its slide") {
    val expr = Workloads.expr("Q5", binding, 2, 5)
    for (mode <- Seq(Mode.NegativeTuple, Mode.Differential))
      intercept[IllegalArgumentException](PhysicalExec.build(expr, mode))
    PhysicalExec.build(expr, Mode.Direct) // no deletions to schedule
  }
}
