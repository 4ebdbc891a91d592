package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** Wall clock in epoch milliseconds with sub-millisecond resolution, aligned
  * with the millisecond timestamps of Spark's listener events.
  */
object Clock {
  private val baseMs = System.currentTimeMillis().toDouble
  private val baseNs = System.nanoTime()
  def nowMs: Double = baseMs + (System.nanoTime() - baseNs) / 1e6
}

/** One traced interval. All spans of a benchmark run share `trace`. */
final case class Span(trace: String, id: String, parent: String, name: String,
                      startMs: Double, endMs: Double, attrs: Seq[(String, Any)] = Nil)

/** Spans kept in memory and written as JSON lines when the benchmark ends. */
final class Spans(val trace: String) {
  private val buf = mutable.ArrayBuffer.empty[Span]

  def add(s: Span): Unit = buf += s

  /** Runs `body` as a child span of `parent` and returns its result. */
  def time[A](id: String, parent: String, name: String)(body: => A): A = {
    val t0 = Clock.nowMs
    try body finally add(Span(trace, id, parent, name, t0, Clock.nowMs))
  }

  /** Job and stage spans of one detailed call, as children of span `callId`. */
  def addCall(callId: String, call: CallRec): Unit =
    Phases.roles(call).foreach { case (job, role) =>
      val jobId = s"$callId/job${job.jobId}"
      add(Span(trace, jobId, callId, "job", job.startMs.toDouble, job.endMs.toDouble,
        Seq("role" -> role, "spark_job" -> job.jobId)))
      job.stages.foreach { s =>
        add(Span(trace, s"$jobId/stage${s.stageId}", jobId, "stage",
          s.submitMs.toDouble, s.endMs.toDouble, Seq(
            "phase" -> Phases.phaseOf(role, s), "call_site" -> s.name,
            "spark_stage" -> s.stageId, "tasks" -> s.tasks,
            "failed_tasks" -> s.failedTasks, "run_ms" -> s.runMs,
            "cpu_ms" -> s.cpuNs / 1e6, "gc_ms" -> s.gcMs,
            "shuffle_records" -> s.shuffleRecords, "shuffle_bytes" -> s.shuffleBytes)))
      }
    }

  def writeJsonLines(file: File): Unit = {
    Option(file.getParentFile).foreach(_.mkdirs())
    val w = new PrintWriter(file, "UTF-8")
    try buf.foreach { s =>
      w.println(Json.obj(Seq("trace" -> s.trace, "span" -> s.id, "parent" -> s.parent,
        "name" -> s.name, "start_ms" -> s.startMs, "end_ms" -> s.endMs) ++ s.attrs))
    } finally w.close()
  }
}

/** Just enough JSON output for spans and the result line. */
object Json {
  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Seq[_] => obj(m.asInstanceOf[Seq[(String, Any)]])
    case other => throw new IllegalArgumentException(s"no JSON form for $other")
  }

  private def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb.append('"').toString
  }
}
