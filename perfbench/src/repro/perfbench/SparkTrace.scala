package repro.perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.{SparkSession, TraceHooks}
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import scala.collection.mutable

/** One Spark SQL execution as the listener saw it: a child span of
  * whichever benchmark span was open when it started.
  *
  * @param callSite   Spark's long call site (the driver stack at the action)
  * @param startMs    wall-clock start, driver clock (ms)
  * @param endMs      wall-clock end, or -1 while it runs
  * @param catalystMs parsing + analysis + optimization + planning time
  */
final class SqlExec(val id: Long, val callSite: String, val startMs: Long) {
  var endMs: Long = -1L
  var jobs: Int = 0
  var taskMs: Long = 0L
  var shuffleBytes: Long = 0L
  var catalystMs: Long = 0L

  /** The layer this execution belongs to: the first `repro.core` frame
    * of its call site names the module and method that issued it.
    */
  lazy val layer: String =
    callSite.linesIterator.map(_.trim).find(_.startsWith("repro.core.")) match {
      case Some(f) if f.startsWith("repro.core.AnswerGraphBuilder") =>
        if (f.contains("pullEdge")) "ag.extend"
        else if (f.contains("burnbackPass")) "ag.burnback"
        else if (f.contains("pullChord") || f.contains("triangleRefine")) "ag.chord"
        else if (f.contains("countAll")) "ag.count"
        else "ag.other"
      case Some(f) if f.startsWith("repro.core.Wireframe") ||
                      f.startsWith("repro.core.Defactorizer") => "defac"
      case Some(f) if f.startsWith("repro.core.Baseline") => "baseline"
      case _ => "ag.other"
    }
}

/** Records every SQL execution with its jobs, task time, shuffle bytes
  * and Catalyst phase times. Jobs are tied to their execution through the
  * `spark.sql.execution.id` job property; jobs outside any execution are
  * kept as executions of their own, with the first stage's call site.
  */
final class SparkTrace(spark: SparkSession) extends SparkListener {
  private val execs = mutable.LinkedHashMap[Long, SqlExec]()
  private val stageOwner = mutable.Map[Int, SqlExec]()
  private val jobOwner = mutable.Map[Int, SqlExec]()
  private var nextOrphan = -1L

  def attach(): Unit = spark.sparkContext.addSparkListener(this)

  /** Waits for every event posted so far, then stops listening. */
  def detach(): Unit = {
    TraceHooks.drainListenerBus(spark.sparkContext)
    spark.sparkContext.removeSparkListener(this)
  }

  /** Finished executions that started within `[fromMs, toMs]`. */
  def within(fromMs: Long, toMs: Long): Vector[SqlExec] = synchronized {
    execs.values.filter(e => e.endMs >= 0 && e.startMs >= fromMs && e.startMs <= toMs).toVector
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = synchronized {
    event match {
      case s: SparkListenerSQLExecutionStart =>
        execs(s.executionId) = new SqlExec(s.executionId, s.details, s.time)
      case e: SparkListenerSQLExecutionEnd =>
        execs.get(e.executionId).foreach { x =>
          x.endMs = e.time
          x.catalystMs = TraceHooks.catalystMs(e)
        }
      case _ =>
    }
  }

  override def onJobStart(job: SparkListenerJobStart): Unit = synchronized {
    val execId = Option(job.properties)
      .flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .map(_.toLong)
    val owner = execId.flatMap(execs.get).getOrElse {
      val site = job.stageInfos.headOption.map(_.details).getOrElse("")
      val orphan = new SqlExec(nextOrphan, site, job.time)
      nextOrphan -= 1
      execs(orphan.id) = orphan
      orphan
    }
    owner.jobs += 1
    jobOwner(job.jobId) = owner
    job.stageIds.foreach(stageOwner(_) = owner)
  }

  override def onJobEnd(job: SparkListenerJobEnd): Unit = synchronized {
    jobOwner.remove(job.jobId).filter(_.id < 0).foreach(_.endMs = job.time)
  }

  override def onTaskEnd(task: SparkListenerTaskEnd): Unit = synchronized {
    for (owner <- stageOwner.get(task.stageId); m <- Option(task.taskMetrics)) {
      owner.taskMs += m.executorRunTime
      owner.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }
}
