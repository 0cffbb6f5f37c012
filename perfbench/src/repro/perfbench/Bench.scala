package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core.reptile.DimRankResult
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Complaint-to-ranking benchmark.
  *
  * One closed-loop client with one outstanding complaint drives the public
  * engine API (`Reptile.rankDim` / `Reptile.recommend`) on a `local[nproc]`
  * Spark session, and times each complaint from the engine call to the
  * ranked result. With `--trace 1` each complaint runs twice, through the
  * engine and through [[TracedEngine]], and the run reports per-layer
  * metrics instead of end-to-end ones.
  *
  * Prints one detail line and then, as the last line, the result object.
  */
object Bench {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, smoke: Boolean, out: File)

  /** Set-ups per untraced run; `setup_s` is their median. */
  val SetupRuns = 3
  val ShufflePartitions = 8
  /** A run stops starting passes once it has taken this many `--seconds`. */
  val OverrunFactor = 4.0

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val (detail, result) = run(args)
    println(Json(detail))
    println(Json(result))
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(need("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name)}"))
    Args(wl, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.get("smoke").contains("1"), new File(kv.getOrElse("out", ".")))
  }

  private def session(out: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def environment(spark: SparkSession): Map[String, Any] = Map(
    "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "cores" -> Runtime.getRuntime.availableProcessors,
    "client_threads" -> 1,
    "java" -> System.getProperty("java.version"),
    "spark" -> spark.version,
    "scala" -> scala.util.Properties.versionNumberString,
  )

  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** One complaint of the timed loop. `engine` is the untraced call. */
  final case class Outcome(request: Request, engine: Try[Vector[DimRankResult]], latency: Double,
                           traced: Option[Try[Vector[DimRankResult]]] = None, tracedLatency: Double = 0.0,
                           gc: Double = 0.0)

  /** Runs one workload; returns the details and the result object. */
  def run(args: Args): (scala.collection.Map[String, Any], Map[String, Any]) = {
    val wl = args.workload
    args.out.mkdirs()
    val setupRuns = if (args.smoke || args.trace) 1 else SetupRuns
    var spark: SparkSession = null
    var pass: Pass = null
    val setups = (0 until setupRuns).map { _ =>
      if (spark != null) spark.stop()
      timed {
        spark = session(args.out)
        pass = wl.prepare(spark, args.seed, args.smoke)
        Input.cacheAll(pass.requests.map(_.input))
      }._2
    }
    val sc = spark.sparkContext
    val direct = new Direct(spark)
    val n = pass.requests.size
    val warmup = if (args.smoke) 0 else wl.warmup
    // Fewer than a pass: spread evenly over it; more: whole passes in order.
    val warmupOrder = (0 until warmup).map(i => if (warmup >= n) i % n else (i + 1) * (n / warmup) - 1)
    val (_, warmupS) = timed(warmupOrder.foreach(i => pass.requests(i).run(direct)))
    val firstComplaintS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    val counter = new JobCounter
    val tracer = new Tracer(sc)
    val traced = new TracedEngine(tracer)
    if (args.trace) sc.addSparkListener(counter)
    val passes =
      if (args.smoke) 1
      else math.max(1, math.round(args.seconds / wl.passSeconds / (if (args.trace) 2 else 1)).toInt)

    val outcomes = mutable.ArrayBuffer.empty[Outcome]
    val primitives = mutable.ArrayBuffer.empty[Map[String, Double]]
    val loopStart = System.nanoTime()
    def elapsed = (System.nanoTime() - loopStart) / 1e9
    var p = 0
    while (p < passes && (p == 0 || elapsed < OverrunFactor * args.seconds)) {
      pass.requests.foreach { req =>
        val c = outcomes.size
        sc.setLocalProperty(JobCounter.Complaint, c.toString)
        sc.setJobDescription("engine")
        val gc0 = gcSeconds
        val (res, lat) = timed(Try(req.run(direct)))
        val gc = gcSeconds - gc0
        sc.setJobDescription(null)
        if (!args.trace) outcomes += Outcome(req, res, lat)
        else {
          traced.begin(c)
          val (tres, tlat) = timed(Try(tracer.span("complaint")(req.run(traced))))
          sc.setLocalProperty(JobCounter.Complaint, null)
          primitives += traced.models.map(primitiveSeconds).foldLeft(Map.empty[String, Double])(sumMaps)
          outcomes += Outcome(req, res, lat, Some(tres), tlat, gc)
        }
      }
      p += 1
    }
    val loopS = elapsed

    // Output checks, after the timed loop.
    val checkStart = System.nanoTime()
    val failures = outcomes.map { o =>
      o.engine match {
        case Failure(e) => Some(s"engine threw: $e")
        case Success(rs) =>
          Check.observed(o.request.input.rows, rs).orElse(o.traced.flatMap {
            case Failure(e)   => Some(s"traced run threw: $e")
            case Success(trs) => Check.sameRanking(rs, trs)
          })
      }
    }
    val oracleFailure = outcomes.headOption.flatMap(o => o.engine.toOption.flatMap(_.headOption).flatMap { r =>
      Try(Check.oracle(o.request.input, r)).failed.toOption.map(e => s"DuckDB oracle: ${e.getMessage}")
    })
    val failed = failures.zipWithIndex.map { case (f, i) => if (i == 0) f.orElse(oracleFailure) else f }
    val nFailed = failed.count(_.nonEmpty)
    val checkS = (System.nanoTime() - checkStart) / 1e9
    val completed = outcomes.filter(_.engine.isSuccess)
    val hits = completed.count(o => Try(o.request.hit(o.engine.get)).getOrElse(false))
    val env = environment(spark)
    spark.stop() // drains the listener bus before the job counts are read

    val latencies = completed.map(_.latency).toVector
    val (tailPct, tail) = Stats.tail(latencies)
    val firstPass = outcomes.take(pass.requests.size)
    val detail = mutable.LinkedHashMap[String, Any](
      "workload" -> wl.name, "seed" -> args.seed, "trace" -> args.trace, "smoke" -> args.smoke,
      "environment" -> env,
      "shape" -> pass.shape,
      "passes" -> p, "complaints" -> outcomes.size, "timed_loop_s" -> loopS,
      "tail_percentile" -> tailPct, "tail_samples" -> latencies.size,
      "setup_runs_s" -> setups, "warmup_s" -> warmupS, "process_to_first_complaint_s" -> firstComplaintS,
      "check_s" -> checkS,
      "failed_frac" -> nFailed.toDouble / outcomes.size,
      "failures" -> failed.flatten.distinct.take(5),
      "latencies_s" -> outcomes.map(o => (o.latency * 1e4).round / 1e4),
      "hits" -> firstPass.map(o => mutable.LinkedHashMap[String, Any]("id" -> o.request.id,
        "hit" -> Try(o.request.hit(o.engine.get)).getOrElse(false), "paper" -> o.request.paperHit)),
    )
    val metrics: Map[String, (Double, String)] =
      if (!args.trace) Map(
        "complaint_p50_s" -> (Stats.median(latencies), "s"),
        "complaint_tail_s" -> (tail, "s"),
        "complaints_per_s" -> (completed.size / loopS, "1/s"),
        "setup_s" -> (Stats.median(setups), "s"),
        "top1_hit_frac" -> (hits.toDouble / math.max(completed.size, 1), "frac"),
        "ok_frac" -> (1.0 - nFailed.toDouble / outcomes.size, "frac"),
      )
      else {
        val layers = Layers.metrics(outcomes.toVector, tracer, counter.all, primitives.toVector)
        detail ++= layers.detail
        layers.metrics
      }
    if (args.trace) writeTrace(args, tracer, counter)
    val result = Map(
      "correct" -> (nFailed == 0),
      "attempted" -> outcomes.size,
      "failed" -> nFailed,
      "metrics" -> metrics.map { case (k, (v, unit)) => k -> Map("value" -> v, "unit" -> unit) },
    )
    (detail, result)
  }

  private def sumMaps(a: Map[String, Double], b: Map[String, Double]): Map[String, Double] =
    (a.keySet ++ b.keySet).map(k => k -> (a.getOrElse(k, 0.0) + b.getOrElse(k, 0.0))).toMap

  /** Each backend primitive called once at the model's shape, and the EM
    * time left once the primitives' share of the fit is taken out.
    */
  private def primitiveSeconds(t: TrainedModel): Map[String, Double] = {
    val bk = t.bk
    val beta = t.fit.beta
    val bs = Array.fill(bk.numClusters)(new Array[Double](bk.m))
    val single = Map(
      "model.gram_s" -> timed(bk.gram)._2,
      "model.cluster_gram_s" -> timed(bk.foreachClusterGram((_, _) => ()))._2,
      "model.xv_s" -> timed(bk.xv(beta))._2,
      "model.xtv_s" -> timed(bk.xtv(t.y))._2,
      "model.cluster_xtv_s" -> timed(bk.clusterXtv(t.y))._2,
      "model.cluster_xa_s" -> timed(bk.clusterXa(bs))._2,
    )
    // Calls per fit in MultiLevelEM.fit: gram and cluster grams once; one
    // xtv and one xv to initialise; per iteration two xv, one xtv, one
    // clusterXtv and one clusterXa.
    val k = t.iters.toDouble
    val calls = Map("model.gram_s" -> 1.0, "model.cluster_gram_s" -> 1.0, "model.xv_s" -> (1 + 2 * k),
      "model.xtv_s" -> (1 + k), "model.cluster_xtv_s" -> k, "model.cluster_xa_s" -> k)
    single + ("model.primitives_in_fit_s" -> single.map { case (n, s) => s * calls(n) }.sum)
  }

  private def writeTrace(args: Args, tracer: Tracer, counter: JobCounter): Unit = {
    val f = new File(args.out, s"trace-${args.workload.name}-seed${args.seed}.jsonl")
    val w = new PrintWriter(f)
    try {
      tracer.spans.foreach { s =>
        w.println(Json(Map("span" -> s.name, "id" -> s.id, "parent" -> s.parent, "complaint" -> s.complaint,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
      }
      counter.all.foreach { j =>
        w.println(Json(Map("job" -> j.id, "complaint" -> j.complaint, "phase" -> j.phase,
          "start_ms" -> j.start, "end_ms" -> j.end, "stages" -> j.stages, "tasks" -> j.tasks.get)))
      }
    } finally w.close()
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (percentile, value): the eleventh-largest sample. Below 20 samples that
    * percentile would not exceed the median, and the largest sample is
    * reported as p100 instead.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val rank = if (s.size >= 20) s.size - 10 else s.size
    (100.0 * rank / s.size, s(rank - 1))
  }
}
