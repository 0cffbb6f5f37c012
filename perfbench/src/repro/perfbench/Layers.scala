package repro.perfbench

import scala.util.Try

/** Per-layer metrics of a traced run, one value per complaint reduced
  * across complaints: times by their median, counts by their mean over
  * whole passes (so counts repeat exactly from run to run).
  */
object Layers {

  final case class Result(metrics: Map[String, (Double, String)], detail: Map[String, Any])

  /** Metrics computed from other metrics rather than measured directly. */
  val Derived: Vector[String] =
    Vector("model.em_other_s", "trace.overhead_s", "share.data_side", "share.em_fit", "reptile.y_fill")

  private val DataSide = Vector("frep.hier", "reptile.stats", "reptile.featurize")

  def metrics(outcomes: Vector[Bench.Outcome], tr: Tracer, jobs: Vector[JobCounter#Job],
              prims: Vector[Map[String, Double]]): Result = {
    val cs = outcomes.indices.toVector
    val jobsOf = jobs.groupBy(_.complaint).withDefaultValue(Vector.empty)
    def phase(c: Int, name: String) = jobsOf(c.toString).filter(_.phase == name)
    def median(f: Int => Double) = Stats.median(cs.map(f))
    def mean(f: Int => Double) = cs.map(f).sum / cs.size
    def secs(name: String) = median(c => tr.seconds(c, name))
    def count(name: String) = mean(c => tr.count(c, name))
    def shape(name: String) = median(c => tr.count(c, name))
    def prim(name: String) = median(c => prims(c).getOrElse(name, 0.0))
    def ratio(a: Int => Double, b: Int => Double) = median(c => if (b(c) > 0) a(c) / b(c) else 0.0)
    val complaintS = (c: Int) => tr.seconds(c, "complaint")
    val engineJobs = (c: Int) => phase(c, "engine")

    val tracedP50 = Stats.median(outcomes.map(_.tracedLatency))
    val untracedP50 = Stats.median(outcomes.map(_.latency))
    val m = Map[String, (Double, String)](
      "frep.hier_s" -> (secs("frep.hier"), "s"),
      "frep.hier_jobs" -> (mean(c => phase(c, "frep.hier").size), "count"),
      "frep.hier_repeat_frac" -> (mean(c =>
        tr.count(c, "frep.hier_repeats") / math.max(tr.count(c, "frep.hier_extractions"), 1.0)), "frac"),
      "reptile.stats_s" -> (secs("reptile.stats"), "s"),
      "reptile.stats_jobs" -> (mean(c => phase(c, "reptile.stats").size), "count"),
      "reptile.groups_observed" -> (count("reptile.groups_observed"), "count"),
      "reptile.featurize_s" -> (secs("reptile.featurize"), "s"),
      "reptile.featurize_jobs" -> (mean(c => phase(c, "reptile.featurize").size), "count"),
      "reptile.features_kept" -> (count("reptile.features_kept"), "count"),
      "reptile.features_dropped" -> (count("reptile.features_dropped"), "count"),
      "spark.jobs" -> (mean(c => engineJobs(c).size), "count"),
      "spark.tasks" -> (mean(c => engineJobs(c).map(_.tasks.get).sum), "count"),
      "spark.job_busy_s" -> (median(c => engineJobs(c).map(j => j.end - j.start).sum / 1e3), "s"),
      "fmatrix.build_s" -> (secs("fmatrix.build"), "s"),
      "fmatrix.n" -> (shape("fmatrix.n"), "count"),
      "fmatrix.m" -> (shape("fmatrix.m"), "count"),
      "fmatrix.clusters" -> (shape("fmatrix.clusters"), "count"),
      "fmatrix.parent_blocks" -> (shape("fmatrix.parent_blocks"), "count"),
      "reptile.buildy_s" -> (secs("reptile.buildy"), "s"),
      "reptile.y_fill" -> (ratio(tr.count(_, "reptile.y_observed"), tr.count(_, "reptile.y_rows")), "frac"),
      "model.em_fit_s" -> (secs("model.em_fit"), "s"),
      "model.em_iter_s" -> (ratio(tr.seconds(_, "model.em_fit"), tr.count(_, "model.em_iters")), "s"),
      "model.predict_s" -> (secs("model.predict"), "s"),
      "model.gram_s" -> (prim("model.gram_s"), "s"),
      "model.cluster_gram_s" -> (prim("model.cluster_gram_s"), "s"),
      "model.xv_s" -> (prim("model.xv_s"), "s"),
      "model.xtv_s" -> (prim("model.xtv_s"), "s"),
      "model.cluster_xtv_s" -> (prim("model.cluster_xtv_s"), "s"),
      "model.cluster_xa_s" -> (prim("model.cluster_xa_s"), "s"),
      "model.em_other_s" -> (median(c =>
        tr.seconds(c, "model.em_fit") - prims(c).getOrElse("model.primitives_in_fit_s", 0.0)), "s"),
      "reptile.rank_s" -> (secs("reptile.rank"), "s"),
      "reptile.candidates" -> (count("reptile.candidates"), "count"),
      "reptile.recommend_dims" -> (count("reptile.recommend_dims"), "count"),
      "jvm.gc_s" -> (outcomes.map(_.gc).sum / outcomes.size, "s"),
      "trace.overhead_s" -> (tracedP50 - untracedP50, "s"),
      "share.data_side" -> (ratio(c => DataSide.map(tr.seconds(c, _)).sum, complaintS), "frac"),
      "share.em_fit" -> (ratio(tr.seconds(_, "model.em_fit"), complaintS), "frac"),
    )
    val phases = jobs.filter(_.complaint.nonEmpty).groupBy(_.phase).map { case (k, js) =>
      Option(k).filter(_.nonEmpty).getOrElse("(none)") -> js.size.toDouble / cs.size
    }
    val detail = Map[String, Any](
      "complaint_p50_s" -> untracedP50,
      "complaint_traced_p50_s" -> tracedP50,
      "spark_jobs_per_complaint_by_phase" -> phases,
      "derived" -> Derived,
      "ranking_matches" -> outcomes.count(o => o.traced.exists(_.isSuccess) &&
        Try(Check.sameRanking(o.engine.get, o.traced.get.get).isEmpty).getOrElse(false)),
    )
    Result(m, detail)
  }
}
