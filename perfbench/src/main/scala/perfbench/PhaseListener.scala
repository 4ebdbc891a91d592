package perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext, Success}
import org.apache.spark.scheduler._

import scala.collection.mutable

/** A stage that ran (was not skipped) inside a traced call. */
final class StageRec(val stageId: Int, val name: String, val isMap: Boolean,
                     val submitMs: Long) {
  var endMs = 0L
  var tasks = 0
  var failedTasks = 0
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L
  def wallMs: Long = endMs - submitMs
}

/** A job launched inside a call, with the stages of it that ran. The result
  * stage is created after its parents, so it has the job's largest stage id;
  * every other stage of the job is a shuffle-map stage.
  */
final class JobRec(val jobId: Int, val startMs: Long, val resultStageId: Int) {
  var endMs = 0L
  var succeeded = false
  val stages = mutable.ArrayBuffer.empty[StageRec]
  def wallMs: Long = endMs - startMs
}

/** What the listener saw for one call: its jobs (always) and, when `detail`
  * is on, their stages and tasks. `peakStorageBytes` is the largest sum of
  * cached-RDD memory seen at any of the call's job ends.
  */
final class CallRec(val group: String, val detail: Boolean) {
  val jobs = mutable.ArrayBuffer.empty[JobRec]
  var peakStorageBytes = 0L
}

/** Listens to the Spark events of one call at a time. The benchmark tags the
  * call's jobs with a job group (`begin`), runs the call, then `end` drains
  * the listener bus and hands back the call's record. Jobs of other groups,
  * such as the output checks, are ignored.
  */
final class PhaseListener(sc: SparkContext) extends SparkListener {
  private var call: CallRec = null
  private var running: JobRec = null
  private val stageById = mutable.HashMap.empty[Int, StageRec]

  def begin(group: String, detail: Boolean): Unit = synchronized {
    call = new CallRec(group, detail)
    running = null
    stageById.clear()
  }

  def end(): CallRec = {
    ListenerBusDrain(sc)
    synchronized { val c = call; call = null; c }
  }

  private def ours(props: java.util.Properties): Boolean =
    call != null && props != null && props.getProperty("spark.jobGroup.id") == call.group

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (ours(e.properties)) {
      running = new JobRec(e.jobId, e.time, e.stageIds.max)
      call.jobs += running
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (call != null) call.jobs.find(_.jobId == e.jobId).foreach { j =>
      j.endMs = e.time
      j.succeeded = e.jobResult == JobSucceeded
      val cached = sc.getRDDStorageInfo.iterator.map(_.memSize).sum
      call.peakStorageBytes = math.max(call.peakStorageBytes, cached)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (ours(e.properties) && call.detail && running != null) {
      val info = e.stageInfo
      val s = new StageRec(info.stageId, info.name, info.stageId != running.resultStageId,
        info.submissionTime.getOrElse(0L))
      running.stages += s
      stageById(info.stageId) = s
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageById.get(e.stageId).foreach { s =>
      s.tasks += 1
      if (e.reason != Success) s.failedTasks += 1
      val m = e.taskMetrics
      if (m != null) {
        s.runMs += m.executorRunTime
        s.cpuNs += m.executorCpuTime
        s.gcMs += m.jvmGCTime
        s.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageById.get(e.stageInfo.stageId).foreach { s =>
      s.endMs = e.stageInfo.completionTime.getOrElse(s.submitMs)
    }
  }
}

/** Time of one `DistributedNE.partition` call split into its phases.
  *
  * Jobs are attributed by the structure of the call, not by call sites:
  * the first job is the initial distribution (2D-hash shuffle, CSR build,
  * first samples) and the last is the assignment emission. In between, each
  * iteration runs a job whose shuffle-map stage ran (phase 1: state copy,
  * one-hop allocation, sync fan-out; then the result stage, phase 2: sync
  * apply, two-hop allocation, local D_rest, reports), followed by a job whose
  * map stage was skipped (the rotation `count()`).
  *
  * All times are in milliseconds except the CPU times, in nanoseconds.
  */
final case class Phases(
    iterations: Int, jobs: Int, stages: Int, tasks: Int, failedTasks: Int,
    jobWallMs: Long, distributeMs: Long, emitMs: Long, rotateMs: Long,
    phase1WallMs: Long, phase1RunMs: Long, phase1CpuNs: Long,
    phase2WallMs: Long, phase2RunMs: Long, phase2CpuNs: Long,
    syncRecords: Long, syncBytes: Long, gcMs: Long, idleCoreMs: Long) {

  /** Wall time inside iteration jobs that neither of their stages covers:
    * the scheduler's hand-over from the map stage to the result stage.
    */
  def iterGapMs: Long =
    jobWallMs - distributeMs - emitMs - rotateMs - phase1WallMs - phase2WallMs
}

object Phases {

  /** The call's jobs in launch order, each with its role: `distribute`,
    * `iterate`, `rotate` or `emit`.
    */
  def roles(call: CallRec): Seq[(JobRec, String)] = {
    val jobs = call.jobs.sortBy(_.jobId).toSeq
    jobs.zipWithIndex.map { case (j, i) =>
      j -> (if (i == 0) "distribute" else if (i == jobs.size - 1) "emit"
            else if (j.stages.exists(_.isMap)) "iterate" else "rotate")
    }
  }

  /** The phase a stage that ran under a job of `role` belongs to. */
  def phaseOf(role: String, s: StageRec): String =
    if (role != "iterate") role else if (s.isMap) "phase1" else "phase2"

  /** Attributes a detailed call record, or explains why it cannot. */
  def of(call: CallRec, cores: Int): Either[String, Phases] = {
    val byRole = roles(call)
    val jobs = byRole.map(_._1)
    val loopRoles = byRole.drop(1).dropRight(1).map(_._2)
    def withRole(r: String) = byRole.collect { case (j, `r`) => j }
    val iterJobs = withRole("iterate")
    def stagesIn(phase: String) = byRole.flatMap { case (j, r) =>
      j.stages.filter(s => phaseOf(r, s) == phase)
    }
    if (jobs.size < 2) Left(s"expected at least 2 jobs, saw ${jobs.size}")
    else if (jobs.exists(!_.succeeded)) Left("a job did not succeed")
    else if (loopRoles.grouped(2).exists(_ != Seq("iterate", "rotate")))
      Left("iteration and rotation jobs do not alternate: " + loopRoles.mkString(","))
    else if (iterJobs.exists(j => j.stages.size != 2 || j.stages.count(_.isMap) != 1))
      Left("an iteration job did not run exactly one map and one result stage")
    else {
      val phase1 = stagesIn("phase1")
      val phase2 = stagesIn("phase2")
      val all = jobs.flatMap(_.stages)
      Right(Phases(
        iterations = iterJobs.size,
        jobs = jobs.size,
        stages = all.size,
        tasks = all.map(_.tasks).sum,
        failedTasks = all.map(_.failedTasks).sum,
        jobWallMs = jobs.map(_.wallMs).sum,
        distributeMs = jobs.head.wallMs,
        emitMs = jobs.last.wallMs,
        rotateMs = withRole("rotate").map(_.wallMs).sum,
        phase1WallMs = phase1.map(_.wallMs).sum,
        phase1RunMs = phase1.map(_.runMs).sum,
        phase1CpuNs = phase1.map(_.cpuNs).sum,
        phase2WallMs = phase2.map(_.wallMs).sum,
        phase2RunMs = phase2.map(_.runMs).sum,
        phase2CpuNs = phase2.map(_.cpuNs).sum,
        syncRecords = phase1.map(_.shuffleRecords).sum,
        syncBytes = phase1.map(_.shuffleBytes).sum,
        gcMs = all.map(_.gcMs).sum,
        idleCoreMs = all.map(s => s.wallMs * cores - s.runMs).sum))
    }
  }
}
