package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.{SparkSession, TraceHooks}
import org.apache.spark.sql.functions.{col, countDistinct}
import repro.core._
import repro.harness.Table1Harness
import repro.rdf.{TripleStore, YagoLite}
import repro.workload.YagoQueries
import scala.collection.mutable
import scala.util.control.NonFatal

/** The Table-1 benchmark: WIREFRAME (`Wireframe.run`) against the
  * one-phase direct-join baseline (`Baseline`) on YagoLite data made from
  * a seed, as a closed loop with one client thread.
  *
  * A run sets the store up several times (generate, write Parquet, load
  * and cache, build the catalog), warms up, then runs a fixed number of
  * whole timed passes (see [[Workload.passes]]). Within a pass each query
  * runs once under WIREFRAME and then once under the baseline, so drift
  * hits both sides alike. Every execution is checked (see
  * [[Checks]]).
  *
  * With `--trace 1` each query runs twice per timed pass, traced and
  * untraced; the traced executions are split into the repo's layers (see
  * [[SparkTrace]]) and the untraced ones give the tracing overhead.
  *
  * The last line on stdout is the result object; the raw samples, the
  * provenance and the trace go to `--result-file`.
  */
object Main {

  val DefaultSeed: Long = 42L
  /** The fixpoint cap passed to `Wireframe.run` (its default). */
  val MaxRounds: Int = 10
  /** Spark's leaf parallelism while generating: `rand(seed)` is seeded
    * per partition, so this pins the dataset whatever the core count.
    */
  val GenPartitions: Int = 4
  /** At ~12K triples, more shuffle partitions only add per-task cost. */
  val ShufflePartitions: Int = 4
  val SetupReps: Int = 2

  private val json = new ObjectMapper().registerModule(DefaultScalaModule)

  /** One benchmark workload: a query list over YagoLite at scale `sf`.
    * `passSeconds` is how long one untraced timed pass took on a 4-core
    * x86 host; it only sizes the run, see [[passes]].
    */
  final case class Workload(name: String, sf: Double, queries: Vector[ConjunctiveQuery],
                            passSeconds: Double) {
    /** The number of timed passes for `--seconds`: fixed by the
      * arguments, never by how fast the code under test runs, so the
      * sample set, and with it what p50 and tail mean, is the same on
      * every run and every version of the code.
      */
    def passes(seconds: Int): Int = math.max(1, math.round(seconds / passSeconds).toInt)
  }

  /** The workloads. Both run at SF 0.01 (about 12K triples), where a
    * WIREFRAME query costs 33-61 Spark jobs of fixed overhead each: a run
    * has to fit JVM start, two set-ups, a warm-up and the timed passes
    * in about a minute. At this scale no workload is free of
    * defactorization cost: on `diamond`, phase 2's 32 jobs of mostly
    * fixed cost are a fifth of WIREFRAME's time.
    */
  val Workloads: Map[String, Workload] = Seq(
    // Acyclic, no chords. On seed 42 phase 1 is 64% of WIREFRAME's time;
    // phase 2 is 36%, in 80 of 277 jobs, listing 64 embeddings per AG edge.
    Workload("snowflake", 0.01, YagoQueries.snowflakes, passSeconds = 24.0),
    // 4-cycles. On seed 42 phase 1 is 80% of WIREFRAME's time, and chord
    // maintenance is 66 of its 137 jobs; phase 2 is 20%, in 32 jobs of
    // mostly fixed cost, at 1.4 embeddings per AG edge. D10 is left out:
    // its phase 2 would make this workload defactorization-bound.
    Workload("diamond", 0.01, YagoQueries.diamonds.filterNot(_.name == "D10"), passSeconds = 9.0),
  ).map(w => w.name -> w).toMap

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        workDir: String, resultFile: String, gitSha: String)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String): String = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(
      Workloads.getOrElse(get("workload"),
        sys.error(s"unknown workload ${get("workload")}; one of ${Workloads.keys.mkString(", ")}")),
      get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      get("work-dir"), get("result-file"), kv.getOrElse("git-sha", "unknown"))
  }

  // ---------------------------------------------------------------- setup

  final case class SetupTimes(genS: Double, cacheS: Double, catalogS: Double) {
    def totalS: Double = genS + cacheS + catalogS
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Generate, write, load, cache and catalog the workload's store. */
  def setUp(spark: SparkSession, w: Workload, seed: Long, dir: String)
      : (TripleStore, Catalog, SetupTimes) = {
    val t0 = System.nanoTime()
    spark.conf.set("spark.sql.leafNodeDefaultParallelism", GenPartitions.toLong)
    try TripleStore(YagoLite.triples(spark, w.sf, seed)).writeParquet(dir)
    finally spark.conf.unset("spark.sql.leafNodeDefaultParallelism")
    val genS = secondsSince(t0)
    val t1 = System.nanoTime()
    val ts = TripleStore.readParquet(spark, dir)
    ts.triples.cache()
    ts.count()
    val cacheS = secondsSince(t1)
    val t2 = System.nanoTime()
    val cat = Catalog.build(ts.triples)
    (ts, cat, SetupTimes(genS, cacheS, secondsSince(t2)))
  }

  /** Per-predicate triple counts, as a stable fingerprint of the data. */
  def fingerprint(cat: Catalog): String = {
    val counts = cat.one.toSeq.sortBy(_._1).map { case (p, s) => s"$p=${s.count}" }.mkString(",")
    f"${cat.nTriples}-${counts.hashCode & 0xffffffffL}%08x"
  }

  def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / (1024.0 * 1024.0)

  // ----------------------------------------------------------- executions

  /** One query execution as the client saw it. `ag`, `rounds` and the
    * phase times are WIREFRAME's; the baseline leaves them at -1.
    */
  final case class Exec(query: String, side: String, pass: Int, timed: Boolean, traced: Boolean,
                        startMs: Long, endMs: Long, ms: Double,
                        emb: Long = -1, ag: Long = -1, rounds: Int = -1,
                        phase1Ms: Long = -1, phase2Ms: Long = -1,
                        error: Option[String] = None) {
    def ok: Boolean = error.isEmpty
    def failed(msg: String): Exec = copy(error = Some(error.fold(msg)(_ + "; " + msg)))
  }

  /** Checks each execution's answer.
    *
    * On the default seed every |embeddings| is checked against the
    * stored reference, and |AG| too on acyclic queries; on any other
    * seed |embeddings| is checked against the baseline's count. Every
    * WIREFRAME execution must also reach its fixpoint before the round
    * cap, and return the same |AG| each time.
    */
  final class Checks(ref: Option[Reference.Table]) {
    private val expected = mutable.Map[String, Long]()
    private val seenAg = mutable.Map[String, Long]()

    def apply(q: ConjunctiveQuery, wf: Exec, base: Exec): (Exec, Exec) = {
      val refRow = ref.flatMap(_.rows.get(q.name))
      var b = base
      if (b.ok) {
        val want = refRow.map(_.emb).getOrElse(expected.getOrElseUpdate(q.name, b.emb))
        if (b.emb != want) b = b.failed(s"baseline |emb| ${b.emb} != expected $want")
      }
      var f = wf
      if (f.ok) {
        refRow.map(_.emb).orElse(expected.get(q.name)) match {
          case Some(want) if f.emb != want => f = f.failed(s"|emb| ${f.emb} != expected $want")
          case None => f = f.failed("no reference or baseline count to check against")
          case _ =>
        }
        if (f.rounds >= MaxRounds) f = f.failed(s"reached the round cap ($MaxRounds): convergence unproven")
        for (r <- refRow; want <- r.ag if !q.isCyclic && f.ag != want)
          f = f.failed(s"|AG| ${f.ag} != reference $want")
        val first = seenAg.getOrElseUpdate(q.name, f.ag)
        if (f.ag != first) f = f.failed(s"|AG| ${f.ag} differs from first execution's $first")
      }
      (f, b)
    }
  }

  private def describe(e: Throwable): String = s"${e.getClass.getSimpleName}: ${e.getMessage}"

  def runWireframe(ts: TripleStore, cat: Catalog, q: ConjunctiveQuery, pass: Int,
                   timed: Boolean, traced: Boolean): (Exec, Option[WireframeRun]) = {
    val wall = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try {
      val r = Wireframe.run(ts, q, cat, maxRounds = MaxRounds)
      val ms = (System.nanoTime() - t0) / 1e6
      (Exec(q.name, "wf", pass, timed, traced, wall, System.currentTimeMillis(), ms,
        r.nEmbeddings, r.agSize, r.ag.rounds, r.phase1Ms, r.phase2Ms), Some(r))
    } catch {
      case NonFatal(e) =>
        val ms = (System.nanoTime() - t0) / 1e6
        (Exec(q.name, "wf", pass, timed, traced, wall, System.currentTimeMillis(), ms,
          error = Some(describe(e))), None)
    }
  }

  def runBaseline(ts: TripleStore, q: ConjunctiveQuery, pass: Int,
                  timed: Boolean, traced: Boolean): Exec = {
    val wall = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try {
      val (n, _) = Baseline.timedCount(ts, q)
      Exec(q.name, "base", pass, timed, traced, wall, System.currentTimeMillis(),
        (System.nanoTime() - t0) / 1e6, emb = n)
    } catch {
      case NonFatal(e) =>
        Exec(q.name, "base", pass, timed, traced, wall, System.currentTimeMillis(),
          (System.nanoTime() - t0) / 1e6, error = Some(describe(e)))
    }
  }

  /** The planners' work for one traced execution, timed by calling them
    * directly: they are pure driver code.
    */
  final case class PlanSpan(edgifierMs: Double, estWalks: Double, triangulatorMs: Double, chords: Int)

  def timePlanners(q: ConjunctiveQuery, cat: Catalog): PlanSpan = {
    val t0 = System.nanoTime()
    val plan = Edgifier.plan(q, cat)
    val t1 = System.nanoTime()
    val chords = Triangulator.chords(q, cat)
    val t2 = System.nanoTime()
    PlanSpan((t1 - t0) / 1e6, plan.cost, (t2 - t1) / 1e6, chords.size)
  }

  // ------------------------------------------------------------ statistics

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The tail: the highest percentile with at least ten samples beyond
    * it, as (value, percentile). Below 100 samples that is relaxed to at
    * least a tenth of the samples beyond it, and at least one, so a short
    * run still reports a percentile in the tail rather than its median.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.size
    val beyond = math.min(10, math.max(1, math.ceil(n / 10.0).toInt))
    if (n <= beyond) (s.last, 100.0)
    else (s(n - beyond - 1), 100.0 * (n - beyond) / n)
  }

  /** Closed-loop throughput of one side: executions per minute of its
    * own busy time.
    */
  def perMinute(ms: Seq[Double]): Double = 60000.0 * ms.size / ms.sum

  // ---------------------------------------------------------------- layers

  private def mb(bytes: Long): Double = bytes / (1024.0 * 1024.0)

  /** Milliseconds of `[from, to]` covered by the executions' intervals. */
  def covered(execs: Seq[SqlExec], from: Long, to: Long): Long = {
    val iv = execs.map(e => (math.max(e.startMs, from), math.min(e.endMs, to)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var end = Long.MinValue
    for ((a, b) <- iv) {
      val s = math.max(a, end)
      if (b > s) total += b - s
      end = math.max(end, b)
    }
    total
  }

  /** The layer split of one traced WIREFRAME execution. The `ag_build`
    * and `defac` intervals come from the returned phase times; each
    * Spark SQL execution inside them is charged to the layer its call
    * site names, and a phase's driver (self) time is whatever of its
    * interval no execution covers.
    */
  def wfLayers(x: Exec, plan: PlanSpan, trace: SparkTrace): Map[String, Double] = {
    val sql = trace.within(x.startMs, x.endMs)
    val ag = sql.filter(_.layer.startsWith("ag."))
    val defac = sql.filterNot(_.layer.startsWith("ag."))
    val (p1From, p1To) = (x.startMs, x.startMs + x.phase1Ms)
    val (p2From, p2To) = (x.endMs - x.phase2Ms, x.endMs)
    def sums(prefix: String, es: Seq[SqlExec]): Seq[(String, Double)] = Seq(
      s"$prefix.jobs" -> es.map(_.jobs).sum.toDouble,
      s"$prefix.task_ms" -> es.map(_.taskMs).sum.toDouble,
      s"$prefix.catalyst_ms" -> es.map(_.catalystMs).sum.toDouble,
      s"$prefix.shuffle_mb" -> mb(es.map(_.shuffleBytes).sum),
    )
    val agSpark = covered(ag, p1From, p1To)
    val sub = Seq("ag.extend", "ag.burnback", "ag.count", "ag.chord", "ag.other").flatMap { l =>
      val es = ag.filter(_.layer == l)
      Seq(s"$l.jobs" -> es.map(_.jobs).sum.toDouble,
          s"$l.spark_ms" -> es.map(e => (e.endMs - e.startMs).toDouble).sum)
    }
    (sums("ag_build", ag) ++ sums("defac", defac) ++ sub ++ Seq(
      "ag_build.ms" -> x.phase1Ms.toDouble,
      "ag_build.spark_ms" -> agSpark.toDouble,
      "ag_build.driver_ms" -> (x.phase1Ms - agSpark).toDouble,
      "defac.ms" -> x.phase2Ms.toDouble,
      "defac.spark_ms" -> covered(defac, p2From, p2To).toDouble,
      "ag.rounds" -> x.rounds.toDouble,
      "ag.edges" -> x.ag.toDouble,
      "edgifier.ms" -> plan.edgifierMs,
      "edgifier.est_walks" -> plan.estWalks,
      "triangulator.ms" -> plan.triangulatorMs,
      "triangulator.chords" -> plan.chords.toDouble,
    )).toMap
  }

  def baseLayers(x: Exec, trace: SparkTrace): Map[String, Double] = {
    val es = trace.within(x.startMs, x.endMs)
    Map(
      "baseline.jobs" -> es.map(_.jobs).sum.toDouble,
      "baseline.task_ms" -> es.map(_.taskMs).sum.toDouble,
      "baseline.catalyst_ms" -> es.map(_.catalystMs).sum.toDouble,
      "baseline.shuffle_mb" -> mb(es.map(_.shuffleBytes).sum),
    )
  }

  /** |iAG| / |AG|: the share of AG edges that some embedding uses,
    * from the distinct projections of the embeddings on each query edge.
    */
  def idealFrac(q: ConjunctiveQuery, r: WireframeRun): (Long, Long) = {
    val ds = q.edges.map(e => countDistinct(col(e.src), col(e.dst)))
    val row = r.embeddings.agg(ds.head, ds.tail: _*).head()
    (q.edges.indices.map(row.getLong).sum, r.agSize)
  }

  // ------------------------------------------------------------------ run

  /** Two task threads, leaving cores for the driver, JIT and GC threads,
    * which run-to-run noise was found to depend on at this scale.
    */
  def session(a: Args): SparkSession = {
    val cores = math.min(2, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${a.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${a.workDir}/warehouse")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def provenance(spark: SparkSession, a: Args, fp: String): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "git_sha" -> a.gitSha,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "spark_master" -> spark.sparkContext.master,
      "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "generator_partitions" -> GenPartitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1024 * 1024),
      "spark_version" -> spark.version,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "workload" -> a.workload.name,
      "sf" -> a.workload.sf,
      "seed" -> a.seed,
      "seconds" -> a.seconds,
      "trace" -> a.trace,
      "max_rounds" -> MaxRounds,
      "data_fingerprint" -> fp,
    )
  }

  def main(argv: Array[String]): Unit = {
    val a = parseArgs(argv)
    val spark = session(a)
    log("session up")
    try run(spark, a) finally spark.stop()
    log("session stopped")
  }

  /** Progress lines on stderr, stamped with seconds since JVM start. */
  def log(msg: String): Unit = {
    val up = (System.currentTimeMillis() -
      java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    Console.err.println(f"[perfbench +$up%.1fs] $msg")
  }

  def run(spark: SparkSession, a: Args): Unit = {
    val w = a.workload
    // Set-up, several times; the last store is the one queried.
    var store: Option[(TripleStore, Catalog, String)] = None
    val setups = (0 until SetupReps).map { i =>
      store.foreach { case (old, _, dir) => old.triples.unpersist(blocking = true); deleteTree(dir) }
      val dir = s"${a.workDir}/data-$i"
      val (ts, cat, t) = setUp(spark, w, a.seed, dir)
      store = Some((ts, cat, dir))
      log(f"setup $i: gen ${t.genS}%.2f s, cache ${t.cacheS}%.2f s, catalog ${t.catalogS}%.2f s")
      t
    }
    val (ts, cat, _) = store.get
    val storeMb = storageMb(spark)
    val nTriples = cat.nTriples
    val fp = fingerprint(cat)
    val prov = provenance(spark, a, fp)
    log(s"${w.name}: sf=${w.sf} seed=${a.seed} triples=$nTriples fingerprint=$fp")

    // Data checks: the default seed must reproduce the reference dataset.
    val ref = if (a.seed == DefaultSeed) Reference.tables.get(w.name) else None
    val dataErrors = ref.toSeq.flatMap { t =>
      if (t.fingerprint == fp) Nil
      else Seq(s"data fingerprint $fp != reference ${t.fingerprint}")
    } ++ (if (a.seed == DefaultSeed && ref.isEmpty) Seq(s"no reference table for ${w.name}") else Nil)

    val checks = new Checks(ref)
    val execs = mutable.ArrayBuffer[Exec]()
    val lastRun = mutable.Map[String, WireframeRun]()
    val trace = if (a.trace) Some(new SparkTrace(spark)) else None
    // Traced executions: (WIREFRAME index, baseline index) into `execs`.
    val tracedPairs = mutable.ArrayBuffer[(Int, Int, PlanSpan)]()

    // Spark's listener bus handles an execution's job, stage and task
    // events after the execution has returned. Waiting for it to drain
    // keeps that backlog out of the next execution's latency, so the
    // baseline's figures do not depend on how many jobs WIREFRAME ran.
    def quiesce(): Unit = TraceHooks.drainListenerBus(spark.sparkContext)

    def pair(q: ConjunctiveQuery, pass: Int, timed: Boolean, traced: Boolean): Unit = {
      val plan = if (traced) Some(timePlanners(q, cat)) else None
      quiesce()
      val (wf0, run) = runWireframe(ts, cat, q, pass, timed, traced)
      quiesce()
      val base0 = runBaseline(ts, q, pass, timed, traced)
      val (wf, base) = checks(q, wf0, base0)
      run.filter(_ => wf.ok).foreach(lastRun(q.name) = _)
      for (x <- Seq(wf, base); err <- x.error) log(s"FAILED ${x.side} ${x.query}: $err")
      execs += wf; execs += base
      plan.foreach(p => tracedPairs += ((execs.size - 2, execs.size - 1, p)))
    }

    // Warm-up, untimed: one pair on the workload's first query, then the
    // baseline on every other query, since each of its one-phase join
    // plans compiles its own generated code. The set-ups have already run
    // Spark's generic paths; a whole warm-up pass (about 20 s on
    // snowflake) would not fit the run's time budget.
    log("warm-up")
    pair(w.queries.head, 0, timed = false, traced = false)
    for (q <- w.queries.tail) execs += runBaseline(ts, q, 0, timed = false, traced = false)
    log("timed passes")

    // Timed passes, whole passes only so every query has as many samples
    // as any other. In a traced run each query runs twice per pass,
    // traced and untraced, in an order that alternates from query to
    // query so warm-up drift does not bias the overhead.
    for (pass <- 1 to w.passes(a.seconds)) {
      for ((q, i) <- w.queries.zipWithIndex) trace match {
        case None => pair(q, pass, timed = true, traced = false)
        case Some(tr) =>
          val tracedFirst = (i + pass) % 2 == 0
          for (traced <- Seq(tracedFirst, !tracedFirst)) {
            if (traced) tr.attach()
            pair(q, pass, timed = true, traced)
            if (traced) tr.detach()
          }
      }
    }

    // Latency samples: the untraced executions that passed their checks.
    // Failures count in `failed`, not in the latencies.
    val timed = execs.filter(_.timed)
    val wfMs = timed.filter(x => x.side == "wf" && !x.traced && x.ok).map(_.ms)
    val baseMs = timed.filter(x => x.side == "base" && !x.traced && x.ok).map(_.ms)

    val idealErrors = mutable.ArrayBuffer[String]()
    var ideal = Map.empty[String, (Long, Long)]
    var spans = Seq.empty[Map[String, Any]]

    /** The root span of execution `i`, with its children: the planner
      * calls, the two phases, and every Spark SQL execution inside it.
      */
    def span(i: Int, tr: SparkTrace, planners: Seq[Map[String, Any]]): Map[String, Any] = {
      val x = execs(i)
      val phases = if (x.side != "wf" || !x.ok) Nil else Seq(
        Map("name" -> "ag_build", "start_ms" -> x.startMs, "end_ms" -> (x.startMs + x.phase1Ms)),
        Map("name" -> "defac", "start_ms" -> (x.endMs - x.phase2Ms), "end_ms" -> x.endMs))
      val sql = tr.within(x.startMs, x.endMs).map(e => Map(
        "name" -> e.layer, "sql_execution" -> e.id, "start_ms" -> e.startMs, "end_ms" -> e.endMs,
        "jobs" -> e.jobs, "task_ms" -> e.taskMs, "shuffle_bytes" -> e.shuffleBytes,
        "catalyst_ms" -> e.catalystMs))
      Map("id" -> i, "name" -> (if (x.side == "wf") "wireframe.run" else "baseline.count"),
        "query" -> x.query, "start_ms" -> x.startMs, "end_ms" -> x.endMs,
        "children" -> (planners ++ phases ++ sql))
    }
    // Per-layer numbers: per-query medians of the traced executions,
    // summed over the workload's queries.
    val layers: Map[String, Double] = trace.fold(Map.empty[String, Double]) { tr =>
      spans = tracedPairs.toSeq.flatMap { case (wi, bi, plan) =>
        Seq(span(wi, tr, Seq(Map("name" -> "edgifier.plan", "ms" -> plan.edgifierMs),
                             Map("name" -> "triangulator.chords", "ms" -> plan.triangulatorMs))),
            span(bi, tr, Nil))
      }
      val perExec = tracedPairs.filter(t => execs(t._1).ok).map { case (wi, bi, plan) =>
        execs(wi).query -> (wfLayers(execs(wi), plan, tr) ++ baseLayers(execs(bi), tr))
      }
      val perQuery = perExec.groupBy(_._1).map { case (q, xs) =>
        val maps = xs.map(_._2)
        q -> maps.head.keys.map(k => k -> median(maps.map(_(k)).toSeq)).toMap
      }
      ideal = w.queries.flatMap(q => lastRun.get(q.name).map(r => q.name -> idealFrac(q, r))).toMap
      for (q <- w.queries if !q.isCyclic; (iag, ag) <- ideal.get(q.name) if iag != ag)
        idealErrors += s"${q.name}: |iAG| $iag < |AG| $ag on an acyclic query"
      val summed = perQuery.values.flatMap(_.keys).toSet.map { (k: String) =>
        k -> perQuery.values.map(_.getOrElse(k, 0.0)).sum
      }.toMap
      val runs = perQuery.keys.toSeq.map(lastRun)
      val untracedWf = timed.filter(x => x.side == "wf" && !x.traced && x.ok).groupBy(_.query)
      val tracedWf = timed.filter(x => x.side == "wf" && x.traced && x.ok).groupBy(_.query)
      val both = tracedWf.keySet.intersect(untracedWf.keySet).toSeq
      summed ++ Map(
        "ag.ideal_frac" -> ideal.values.map(_._1).sum.toDouble / ideal.values.map(_._2).sum,
        "defac.emb_per_ag_edge" -> runs.map(_.nEmbeddings).sum.toDouble / runs.map(_.agSize).sum,
        "setup.gen_s" -> median(setups.map(_.genS)),
        "setup.cache_s" -> median(setups.map(_.cacheS)),
        "setup.catalog_s" -> median(setups.map(_.catalogS)),
        "store.triples" -> nTriples.toDouble,
        "store.cached_mb_end" -> storageMb(spark),
        "trace.overhead_frac" -> (if (both.isEmpty) Double.NaN else
          both.map(q => median(tracedWf(q).map(_.ms).toSeq)).sum /
          both.map(q => median(untracedWf(q).map(_.ms).toSeq)).sum - 1.0),
      )
    }

    val errors = dataErrors ++ idealErrors
    errors.foreach(e => log(s"FAILED check: $e"))
    val attempted = execs.size + (if (a.seed == DefaultSeed) 1 else 0) + ideal.size
    val failed = execs.count(!_.ok) + errors.size

    // A side none of whose executions passed has no latency to report;
    // run.py then names the missing metrics and fails the run.
    def latency(side: String, ms: Seq[Double]): Map[String, Double] =
      if (ms.isEmpty) Map.empty
      else Map(s"${side}_ms_p50" -> median(ms), s"${side}_ms_tail" -> tail(ms)._1,
               s"${side}_qpm" -> perMinute(ms))
    def tailPct(ms: Seq[Double]): Double = if (ms.isEmpty) Double.NaN else tail(ms)._2
    val (wfTailPct, baseTailPct) = (tailPct(wfMs.toSeq), tailPct(baseMs.toSeq))
    val endToEnd: Map[String, Double] = latency("wf", wfMs.toSeq) ++ latency("base", baseMs.toSeq) ++
      Map("setup_s" -> median(setups.map(_.totalS)), "store_mb" -> storeMb)
    log(f"wf: ${wfMs.size} samples, tail = p$wfTailPct%.1f; " +
      f"baseline: ${baseMs.size} samples, tail = p$baseTailPct%.1f; " +
      f"failed ${failed}/${attempted}")

    // The Table-1 view of the same run (report only).
    val rows = w.queries.flatMap { q =>
      val wfs = timed.filter(x => x.query == q.name && x.side == "wf" && x.ok)
      val bs = timed.filter(x => x.query == q.name && x.side == "base" && x.ok)
      if (wfs.isEmpty || bs.isEmpty) None
      else {
        def med(f: Exec => Double, xs: Seq[Exec]) = math.round(median(xs.map(f)))
        Some(Table1Harness.Row(q.name, if (q.isCyclic) "diamond" else "snowflake",
          med(_.ms, bs.toSeq), med(_.ms, wfs.toSeq), med(_.phase1Ms.toDouble, wfs.toSeq),
          med(_.phase2Ms.toDouble, wfs.toSeq), wfs.head.ag, wfs.head.emb, wfs.head.rounds))
      }
    }
    Console.err.print(Table1Harness.render(rows))

    val raw = Map(
      "provenance" -> prov,
      "setups" -> setups.map(t => Map("gen_s" -> t.genS, "cache_s" -> t.cacheS,
        "catalog_s" -> t.catalogS, "total_s" -> t.totalS)),
      "store_mb" -> storeMb,
      "predicate_counts" -> cat.one.map { case (p, s) => p -> s.count },
      "tail_percentile" -> Map("wf" -> wfTailPct, "base" -> baseTailPct),
      "samples" -> Map("wf" -> wfMs.size, "base" -> baseMs.size),
      "executions" -> execs.map(x => Map(
        "query" -> x.query, "side" -> x.side, "pass" -> x.pass, "timed" -> x.timed,
        "traced" -> x.traced, "ms" -> x.ms, "emb" -> x.emb, "ag" -> x.ag,
        "rounds" -> x.rounds, "phase1_ms" -> x.phase1Ms, "phase2_ms" -> x.phase2Ms,
        "error" -> x.error)),
      "ideal" -> ideal.map { case (q, (iag, ag)) => q -> Map("iag" -> iag, "ag" -> ag) },
      "errors" -> errors,
      "metrics" -> (endToEnd ++ layers + ("failed_frac" -> failed.toDouble / attempted)),
      "spans" -> spans,
    )
    writeFile(a.resultFile, json.writeValueAsString(raw))

    println(json.writeValueAsString(Map(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "end_to_end" -> endToEnd,
      "per_layer" -> layers,
    )))
  }

  private def writeFile(path: String, s: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    java.nio.file.Files.write(f.toPath, s.getBytes("UTF-8"))
  }

  private def deleteTree(path: String): Unit = {
    def rm(f: java.io.File): Unit = {
      Option(f.listFiles).foreach(_.foreach(rm))
      f.delete()
    }
    rm(new java.io.File(path))
  }
}
