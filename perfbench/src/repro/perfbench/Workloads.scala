package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.reptile._
import repro.exp.EndToEndExp
import repro.synth.{CovidSynth, DatasetSynth}
import scala.util.Random

/** One pass of a workload: its complaints in order, and the input shape. */
final case class Pass(requests: Vector[Request], shape: Map[String, Any])

/** A benchmark workload. Each is chosen so that one layer the engine plans
  * to optimise does most of the work in it and little in another.
  */
trait Workload {
  def name: String
  /** Generates the inputs of one pass from the seed. */
  def prepare(spark: SparkSession, seed: Long, smoke: Boolean): Pass
  /** Complaints run untimed before timing to warm the JIT and Spark's
    * code-generation caches: spread evenly over a pass if fewer than a
    * pass, else whole passes in order.
    */
  def warmup: Int
  /** Wall time of one pass at the commit that defined the benchmark; a
    * run repeats `round(seconds / passSeconds)` whole passes, so every run
    * measures the same complaint mix.
    */
  def passSeconds: Double
}

object Workloads {
  val all: Vector[Workload] = Vector(CovidIssues, CompasSession, SparseCubeWorkload)
  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** The 16 US COVID issues of Table 1 on their corrupted panels, with the
  * case study's configuration; each is one `rankDim` over the states of one
  * day. Fact tables hold 2,240 rows, so the Spark data side is nearly all of
  * each complaint's cost.
  *
  * The 14 global issues (two `rankDim`s each, region then country) are left
  * out: a run must fit a whole warm-up pass and two timed passes into about
  * a minute (see the README), and a mix of one- and two-call complaints puts
  * the median at the edge of the one-call cluster, where it spreads most
  * from run to run. The two-level drill is measured on sparse-cube.
  */
object CovidIssues extends Workload {
  val name = "covid-issues"
  // Two whole passes: over a cold first pass an issue speeds up from ~1.2 s
  // to ~0.7 s as the JIT compiles Spark's planning code, and is still ~15%
  // slower in the second than in the third.
  val warmup = 32
  val passSeconds = 10.0
  // CovidExp's configuration (SUM modelled directly, log1p, random intercepts).
  private val cfg = ReptileConfig(emIters = 12, logTransform = true, sumDirect = true, randomEffects = "intercept")
  private val dims = Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("state")))

  def prepare(spark: SparkSession, seed: Long, smoke: Boolean): Pass = {
    val issues = if (smoke) CovidSynth.usIssues.take(2) else CovidSynth.usIssues
    val requests = issues.map { issue =>
      val in = Input.fromFrame(s"covid-${issue.id}", CovidSynth.corruptedUs(spark, issue, seed), "value")
      val q = Query(in.fact, dims, Map("time" -> 1), Map("day" -> CovidSynth.dayKey(issue.day)),
        Complaint(AggType.Sum, issue.dir), "value", cfg)
      Request(issue.id, in, e => Vector(e.rankDim(q, "geo")),
        rs => rs.last.best.values("state") == issue.location, Some(issue.paperReptile))
    }
    Pass(requests, Map("issues" -> issues.size))
  }
}

/** An analyst session on COMPAS-like data along the Figure-10 drill path
  * time→time→time→age→race→charge: each step calls `recommend` on a
  * COUNT-too-high complaint, then commits the scripted drill. Every step
  * re-derives hierarchies, statistics and features for every candidate
  * hierarchy, repeating work across candidates and steps.
  *
  * One leaf cell carries planted duplicate records, and the scripted drill
  * follows that cell, so each step has a ground-truth group.
  *
  * Not listed in BENCHMARK.json: a run takes about 70 s, too long for a
  * full comparison (see the README). Run it by name.
  */
object CompasSession extends Workload {
  val name = "compas-session"
  val warmup = 1
  val passSeconds = 24.0
  private val setup = EndToEndExp.compasSetup
  private val cfg = ReptileConfig()
  val FactRows = 60843
  val PlantedRows = 600

  def prepare(spark: SparkSession, seed: Long, smoke: Boolean): Pass = {
    val (rows, planted) = if (smoke) (3000, 60) else (FactRows, PlantedRows)
    val base = Input.fromFrame("compas-base", DatasetSynth.compasLike(spark, rows, seed), setup.measure)
    val rng = new Random(seed)
    val cell = base.rows.keys(rng.nextInt(base.rows.size))
    val extra = Array.fill(planted)(cell.clone())
    val in = Input.of(spark, name,
      new Rows(base.rows.attrs, base.rows.keys ++ extra, base.rows.measure ++ Array.fill(planted)(rng.nextDouble() * 10)),
      setup.measure)
    val truth = base.rows.attrs.zip(cell).toMap
    val complaint = Complaint(AggType.Count, Direction.TooHigh)

    var drilled = Map.empty[String, Int]
    var filters = Map.empty[String, String]
    val requests = setup.drillOrder.zipWithIndex.map { case (dimName, step) =>
      val q = Query(in.fact, setup.dims, drilled, filters, complaint, setup.measure, cfg)
      val dim = setup.dims.find(_.name == dimName).get
      val attr = dim.attrs(drilled.getOrElse(dimName, 0))
      filters += (attr -> truth(attr))
      drilled += (dimName -> (drilled.getOrElse(dimName, 0) + 1))
      Request(s"step${step + 1}-$dimName", in, e => e.recommend(q),
        rs => rs.head.best.values.forall { case (a, v) => truth(a) == v })
    }
    Pass(requests, Map("rows" -> in.rows.size, "planted_rows" -> planted, "steps" -> requests.size))
  }
}

/** The sparse pre-aggregated cube ([[SparseCube]]): complaints on single
  * (day, store) cells, drilled into product. y spans every (day, store,
  * product) group, of which about 2% are observed, so EM training is most
  * of each complaint.
  */
object SparseCubeWorkload extends Workload {
  val name = "sparse-cube"
  // After one warm-up complaint the first timed one is still ~20% slower.
  val warmup = 2
  val passSeconds = 15.0
  val Full = SparseCube.Shape(months = 12, daysPerMonth = 25, regions = 8, storesPerRegion = 22,
    products = 12, cells = 1150, productShare = 0.9, complaintCells = 4)
  val Smoke = SparseCube.Shape(months = 2, daysPerMonth = 4, regions = 2, storesPerRegion = 3,
    products = 4, cells = 10, productShare = 0.9, complaintCells = 2)
  private val cfg = ReptileConfig()
  private val dims = Vector(
    Dimension("time", Vector("month", "day")),
    Dimension("store", Vector("region", "store")),
    Dimension("product", Vector("product")),
  )

  def prepare(spark: SparkSession, seed: Long, smoke: Boolean): Pass = {
    val shape = if (smoke) Smoke else Full
    val cube = SparseCube.generate(shape, seed)
    val in = Input.of(spark, name, cube.rows, SparseCube.Measure)
    val requests = cube.planted.zipWithIndex.map { case (p, i) =>
      val complaint =
        if (p.countTooHigh) Complaint(AggType.Count, Direction.TooHigh) else Complaint(AggType.Mean, Direction.TooLow)
      val q = Query(in.fact, dims, Map("time" -> 2, "store" -> 2), p.cell, complaint, SparseCube.Measure, cfg)
      Request(s"cell$i-${complaint.agg.name}", in, e => Vector(e.rankDim(q, "product")),
        rs => rs.last.best.values("product") == p.product)
    }
    val groups = cube.rows.groupStats(SparseCube.Attrs).size
    Pass(requests, Map("rows" -> in.rows.size, "n" -> shape.n, "clusters" -> shape.clusters,
      "observed_frac" -> groups.toDouble / shape.n))
  }
}
