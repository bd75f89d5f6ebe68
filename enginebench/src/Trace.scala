package enginebench

import java.io.PrintWriter
import java.nio.file.Path
import repro.physical.{Delta, Node}
import scala.collection.mutable

/** In-memory span recorder. A span has a name, start and end (ns from
  * `System.nanoTime`), the span that was open when it began (its parent)
  * and the slide it belongs to. Spans nest strictly, so a stack of open
  * spans gives each span's parent, and a span's self time is its
  * duration minus the durations of its direct children.
  */
final class Tracer {
  private val names   = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]

  private var count   = 0
  private var nameA   = new Array[Int](1 << 14)
  private var startA  = new Array[Long](1 << 14)
  private var endA    = new Array[Long](1 << 14)
  private var parentA = new Array[Int](1 << 14)
  private var slideA  = new Array[Int](1 << 14)

  private val open     = new Array[Int](1024)
  private val childNs  = new Array[Long](1024)
  private var depth    = 0
  private var selfNs   = new Array[Long](64)
  private var totalNs  = new Array[Long](64)

  /** Index of the slide that spans begun from now on belong to. */
  var slide: Int = 0

  def nameId(name: String): Int = nameIds.getOrElseUpdate(name, {
    names += name
    if (names.size > selfNs.length) {
      selfNs = java.util.Arrays.copyOf(selfNs, 2 * names.size)
      totalNs = java.util.Arrays.copyOf(totalNs, 2 * names.size)
    }
    names.size - 1
  })

  def begin(name: Int): Unit = {
    if (count == nameA.length) grow()
    val id = count
    count += 1
    nameA(id) = name
    parentA(id) = if (depth > 0) open(depth - 1) else -1
    slideA(id) = slide
    open(depth) = id
    childNs(depth) = 0L
    depth += 1
    startA(id) = System.nanoTime()
  }

  /** Close the innermost open span; returns its duration in ns. */
  def end(): Long = {
    val t = System.nanoTime()
    depth -= 1
    val id  = open(depth)
    endA(id) = t
    val dur = t - startA(id)
    selfNs(nameA(id)) += dur - childNs(depth)
    totalNs(nameA(id)) += dur
    if (depth > 0) childNs(depth - 1) += dur
    dur
  }

  def spans: Int = count

  /** Summed self time of every span called `name`, in ns. */
  def selfOf(name: String): Long = nameIds.get(name).map(selfNs(_)).getOrElse(0L)

  /** Summed inclusive time of every span called `name`, in ns. */
  def totalOf(name: String): Long = nameIds.get(name).map(totalNs(_)).getOrElse(0L)

  /** Write every span as one CSV row: id, name, start, end, parent, slide. */
  def write(file: Path): Unit = {
    val out = new PrintWriter(file.toFile, "UTF-8")
    try {
      out.println("id,name,start_ns,end_ns,parent,slide")
      var i = 0
      while (i < count) {
        out.println(s"$i,${names(nameA(i))},${startA(i)},${endA(i)},${parentA(i)},${slideA(i)}")
        i += 1
      }
    } finally out.close()
  }

  private def grow(): Unit = {
    val n = 2 * nameA.length
    nameA = java.util.Arrays.copyOf(nameA, n)
    startA = java.util.Arrays.copyOf(startA, n)
    endA = java.util.Arrays.copyOf(endA, n)
    parentA = java.util.Arrays.copyOf(parentA, n)
    slideA = java.util.Arrays.copyOf(slideA, n)
  }
}

/** Per-operator counters of one traced pass, indexed like `Dataflow.nodes`. */
final class OpCounters(n: Int) {
  val in     = new Array[Long](n)
  val negIn  = new Array[Long](n)
  val out    = new Array[Long](n)
  val negOut = new Array[Long](n)
  val statePeak = new Array[Long](n)

  def countIn(i: Int, d: Delta): Unit = if (d.sign == 1) in(i) += 1 else negIn(i) += 1
  def countOut(i: Int, d: Delta): Unit = if (d.sign == 1) out(i) += 1 else negOut(i) += 1
}

/** Forwarding node placed on the `parent` link of node `from`: every
  * delta `from` emits is counted, then handed to the real parent `to`
  * inside a `op.<to>.receive` span.
  */
final class TimingLink(from: Int, to: Int, target: Node, span: Int,
                       tracer: Tracer, counters: OpCounters) extends Node {
  override def receive(d: Delta, slot: Int): Unit = {
    counters.countOut(from, d)
    counters.countIn(to, d)
    tracer.begin(span)
    target.receive(d, slot)
    tracer.end()
  }
}
