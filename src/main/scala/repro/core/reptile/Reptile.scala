package repro.core.reptile

import org.apache.spark.{Partition, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{AnalysisException, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{BindReferences, BoundReference, Cast, EvalMode, Expression,
  UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.optimizer.NormalizeNaNAndZero
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, DoubleType, FloatType}
import org.apache.spark.unsafe.Platform
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.model.{FactorizedBackend, MultiLevelEM, ObservedY}

/** A hierarchical dimension: attributes ordered least to most specific. */
final case class Dimension(name: String, attrs: Vector[String])

/** Which group statistic a model predicts. */
sealed trait StatKind { def col: String; def name: String }
object StatKind {
  case object CountStat extends StatKind { val col = "stat_count"; val name = "count" }
  case object MeanStat  extends StatKind { val col = "stat_mean";  val name = "mean"  }
  case object SumStat   extends StatKind { val col = "stat_sum";   val name = "sum"   }
}

final case class ReptileConfig(
    /** The cap on EM iterations: a fit stops earlier once its marginal
      * log-likelihood stops rising (`MultiLevelEM.Tolerance`).
      */
    emIters: Int = 20,
    multiLevel: Boolean = true,
    /** Model log1p-transformed statistics (variance stabilization for
      * count-like measures with multiplicative structure, e.g. COVID).
      */
    logTransform: Boolean = false,
    /** For SUM complaints: model the SUM statistic directly (appropriate
      * when groups are pre-aggregated, one record per group) instead of
      * separate COUNT and MEAN models.
      */
    sumDirect: Boolean = false,
    ridge: Double = 1e-8,
    /** Random-effect matrix Z (Section 3.3.4): "all" uses Z_i = X_i (the
      * paper's default); "intercept" keeps only the intercept column
      * (random intercepts), the robust choice when clusters are small
      * relative to the feature count.
      */
    randomEffects: String = "all",
    /** Main-effect features need at least this many matrix rows per
      * distinct attribute value (else the feature leaks the target).
      */
    minParallel: Double = 2.0,
)

/** One ranked drill-down group. */
final case class Candidate(
    values: Map[String, String],
    observed: GroupStats,
    repaired: GroupStats,
    predicted: Map[String, Double],
    score: Double,
    /** observed - predicted on the primary modeled statistic. */
    residual: Double,
)

/** Ranking of the groups produced by drilling down one hierarchy. */
final case class DimRankResult(
    dim: String,
    attr: String,
    candidates: Vector[Candidate],
    /** complaint value before any repair, for reference. */
    baselineScore: Double,
) {
  def ranked: Vector[Candidate] = candidates.sortBy(_.score)
  def best: Candidate = ranked.head
}

/** The statistics of one drill-down, collected to the driver: the data
  * step's output, as one table of groups. `used` lists the hierarchies in
  * matrix order with their depths, the drill-down hierarchy last, and
  * `hiers` their relations. Group `g` is row `groupRows(h)(g)` of
  * hierarchy `h`; `stats(g)` holds its (count, mean, std) and `sums(g)`
  * Spark's `sum` of the measure. Every later step indexes this table.
  */
final class Drilldown(
    val used: Vector[(Dimension, Int)],
    val hiers: Vector[HierRelation],
    val groupRows: Vector[Array[Int]],
    val stats: Vector[GroupStats],
    val sums: Array[Double],
) {
  val attrs: Vector[String] = Drilldown.attrsOf(used)

  /** Rows of the model's matrix (the cartesian product of the relations),
    * and each hierarchy's stride in it: the last varies fastest, as in
    * `FactorizedMatrix.indexOf`.
    */
  val n: Long = hiers.map(_.total.toLong).product
  private val strides: Vector[Long] = hiers.map(_.total.toLong).scanRight(1L)(_ * _).tail

  /** Each group's matrix row. */
  lazy val matrixRows: Array[Int] = {
    require(n <= Int.MaxValue, s"matrix too tall: $n rows")
    Array.tabulate(stats.size)(g => hiers.indices.foldLeft(0L)((r, h) => r + groupRows(h)(g) * strides(h)).toInt)
  }

  /** The groups a complaint's drill-down ranks: the siblings under the
    * complaint tuple in the last hierarchy. `filters` holds the tuple's
    * value of every drilled attribute. The siblings are one contiguous
    * range of matrix rows (the tuple's row in all but the last hierarchy,
    * the run of its prefix in the last); each comes with its matrix row,
    * its values of `attrs` and its observed statistics, empty if no group
    * has them.
    */
  def candidates(filters: Map[String, String]): Vector[(Int, Map[String, String], GroupStats)] = {
    def filterOf(a: String): String =
      filters.getOrElse(a, throw new IllegalArgumentException(s"filter missing for drilled attr $a"))
    val fixedRows = used.init.zipWithIndex.map { case ((d, dep), h) =>
      hiers(h).rowIndexOf(d.attrs.take(dep).map(filterOf))
    }
    val (target, tDepth) = used.last
    val (start, end) = hiers.last.blockOfPrefix(target.attrs.take(tDepth - 1).map(filterOf))
    val first = (fixedRows.indices.map(h => fixedRows(h) * strides(h)).sum + start).toInt
    val observed = Array.fill(end - start)(GroupStats.empty)
    matrixRows.indices.foreach { g =>
      val c = matrixRows(g) - first
      if (c >= 0 && c < observed.length) observed(c) = stats(g)
    }
    val fixedKey = fixedRows.indices.flatMap(h => hiers(h).rows(fixedRows(h)))
    Vector.tabulate(end - start)(c => (first + c, attrs.zip(fixedKey ++ hiers.last.rows(start + c)).toMap, observed(c)))
  }

  def features(kind: StatKind, aux: Seq[AuxValues], cfg: ReptileConfig): Vector[FeatureColumn] =
    Featurizer.fromGroups(groupRows, Drilldown.targets(kind, cfg.logTransform, stats, sums)._1, hiers, aux,
      cfg.minParallel)

  /** A `kind` model's y: the groups' targets and default
    * (`Drilldown.targets`), in the order of their matrix rows, so that a
    * fit's rounding does not depend on the order the data step met them.
    */
  def observedY(kind: StatKind, logTransform: Boolean): ObservedY = {
    val (targets, default) = Drilldown.targets(kind, logTransform, stats, sums)
    // Matrix rows are distinct: sorting (row, group) pairs packed in a
    // long orders the groups by row.
    val byRow = new Array[Long](stats.size)
    for (g <- byRow.indices) byRow(g) = matrixRows(g).toLong << 32 | g
    java.util.Arrays.sort(byRow)
    val (rows, values) = (new Array[Int](byRow.length), new Array[Double](byRow.length))
    for (k <- byRow.indices) { rows(k) = (byRow(k) >>> 32).toInt; values(k) = targets(byRow(k).toInt) }
    ObservedY(rows, values, default)
  }
}

object Drilldown {
  /** The grouping attributes of hierarchies `used`, in matrix order. */
  def attrsOf(used: Vector[(Dimension, Int)]): Vector[String] = used.flatMap { case (d, dep) => d.attrs.take(dep) }

  /** The statistic a `kind` model is trained on, per group: its count, its
    * mean or its sum (`sums(g)`), each log1p'd (of at least 0) when
    * `logTransform`; and, in the same form, that of a group not observed:
    * 0 for count and sum, the mean of the group means for mean.
    */
  def targets(kind: StatKind, logTransform: Boolean, stats: IndexedSeq[GroupStats],
              sums: Array[Double]): (Array[Double], Double) = {
    val raw = new Array[Double](stats.size)
    for (g <- raw.indices) raw(g) = kind match {
      case StatKind.CountStat => stats(g).count
      case StatKind.MeanStat  => stats(g).mean
      case StatKind.SumStat   => sums(g)
    }
    val empty = if (kind == StatKind.MeanStat && raw.nonEmpty) {
      // Summed left to right from the first value, as `raw.sum` sums.
      var total = raw(0)
      for (g <- 1 until raw.length) total += raw(g)
      total / raw.length
    } else 0.0
    def xform(v: Double): Double = if (logTransform) math.log1p(math.max(v, 0.0)) else v
    if (logTransform) for (g <- raw.indices) raw(g) = xform(raw(g))
    (raw, xform(empty))
  }

  /** Reads merged group buffers: `b`'s keys hold the values of
    * `attrsOf(used)`, of Spark types `types`. Its three steps are those a
    * `ReptileSession` reuses: `code`, `hierarchy` and `assemble`.
    */
  private[repro] def fromBuffers(used: Vector[(Dimension, Int)], b: GroupBuffers, types: Seq[DataType],
                                 measure: String): Drilldown = {
    val coded = code(b, types)
    coded.requireGroups(attrsOf(used))
    val offsets = used.scanLeft(0)(_ + _._2)
    val (hiers, groupRows) =
      used.indices.map(h => hierarchy(used(h)._1, used(h)._2, coded.select(offsets(h) until offsets(h + 1)))).unzip
    assemble(used, hiers.toVector, groupRows.toVector, b, measure)
  }

  /** Codes the values in `b`'s keys, of Spark types `types`, densely in
    * `String` order, each written once as `Row.get(i).toString` would
    * write it. Two Spark values may print alike; they then share a code.
    */
  private[reptile] def code(b: GroupBuffers, types: Seq[DataType]): Coded = {
    val keys = Array.tabulate(b.groups)(b.key)
    val (codes, values, firstNull) = types.indices.map { i =>
      val toScala = CatalystTypeConverters.createToScalaConverter(types(i))
      val seen = new java.util.HashMap[AnyRef, Integer]()
      val printed = scala.collection.mutable.ArrayBuffer.empty[String]
      val local = keys.map(k => if (k.isNullAt(i)) -1 else seen.computeIfAbsent(k.get(i, types(i)), v => {
        printed += toScala(v).toString
        printed.size - 1
      }).intValue)
      val sorted = printed.distinct.sorted.toArray
      val rank = printed.map(sorted.search(_).insertionPoint)
      (local.map(c => if (c < 0) c else rank(c)), sorted, local.indexOf(-1))
    }.unzip3
    Coded(b.groups, codes, values, firstNull)
  }

  /** Hierarchy `d` at depth `dep` over groups coded by its attributes:
    * its relation, and each group's row in it. The rows are the groups'
    * distinct code tuples, ranked one attribute at a time, so they come
    * out in the order `HierRelation.apply` sorts string tuples by.
    */
  private[reptile] def hierarchy(d: Dimension, dep: Int, coded: Coded): (HierRelation, Array[Int]) = {
    val Coded(_, codes, values, _) = coded
    // Rank each group's prefix of the first j attributes among the
    // distinct prefixes, for j = 1 .. dep: ordering the groups by (rank of
    // the shorter prefix, code), by two counting sorts, orders them as the
    // prefixes extended by one attribute sort, and one pass drops repeats.
    var row = codes(0)
    var distinct = values(0).length
    for (i <- 1 until dep) {
      val (prefix, code) = (row, codes(i))
      val byPair = byKey(byKey(Array.range(0, prefix.length), code, values(i).length), prefix, distinct)
      row = new Array[Int](prefix.length)
      distinct = 0
      for (p <- byPair.indices) {
        val g = byPair(p)
        if (p == 0 || prefix(g) != prefix(byPair(p - 1)) || code(g) != code(byPair(p - 1))) distinct += 1
        row(g) = distinct - 1
      }
    }
    val carrier = new Array[Int](distinct)
    row.indices.foreach(g => carrier(row(g)) = g)
    val tuples = Vector.tabulate(carrier.length)(r => (0 until dep).map(i => values(i)(codes(i)(carrier(r)))).toVector)
    (new HierRelation(d.name, d.attrs.take(dep), tuples), row)
  }

  /** `order` stably sorted by `keys(g)` of its groups `g`, each key in
    * `0 until range`: a counting sort.
    */
  private def byKey(order: Array[Int], keys: Array[Int], range: Int): Array[Int] = {
    val start = new Array[Int](range + 1)
    for (p <- order.indices) start(keys(order(p)) + 1) += 1
    for (k <- 1 to range) start(k) += start(k - 1)
    val sorted = new Array[Int](order.length)
    for (p <- order.indices) {
      val k = keys(order(p))
      sorted(start(k)) = order(p)
      start(k) += 1
    }
    sorted
  }

  /** The drill-down whose group `g` has `b`'s buffers of group `g` and is
    * row `groupRows(h)(g)` of hierarchy `h`. A group reports Spark's
    * statistics: `count(1)`, `avg` (sum / n), `stddev_samp` (0 for one
    * value) and `sum`. A null measure would make count x mean overstate the
    * group's sum, and a NaN or infinite one would make its statistics NaN,
    * so either is rejected, naming `measure` and the first such group.
    */
  private[reptile] def assemble(used: Vector[(Dimension, Int)], hiers: Vector[HierRelation],
                                groupRows: Vector[Array[Int]], b: GroupBuffers, measure: String): Drilldown = {
    def keyString(g: Int): String = hiers.indices.flatMap(h => hiers(h).rows(groupRows(h)(g))).mkString("(", ", ", ")")
    (0 until b.groups).foreach { g =>
      val nulls = b.rows(g) - b.n(g).toLong
      if (nulls > 0)
        throw new IllegalArgumentException(s"measure $measure is null in $nulls rows of group ${keyString(g)}")
      if (!java.lang.Double.isFinite(b.mean(g)))
        throw new IllegalArgumentException(s"measure $measure is NaN or infinite in group ${keyString(g)}")
    }
    new Drilldown(used, hiers, groupRows,
      Vector.tabulate(b.groups)(g => GroupStats(b.rows(g).toDouble, b.mean(g), b.std(g))), Array.tabulate(b.groups)(b.sum))
  }
}

/** Attribute values over `groups` groups: group `g`'s value of attribute
  * `i` is `values(i)(codes(i)(g))`, or null where the code is -1, first
  * in group `firstNull(i)` (-1 if never).
  */
private[reptile] final case class Coded(groups: Int, codes: IndexedSeq[Array[Int]], values: IndexedSeq[Array[String]],
                                        firstNull: IndexedSeq[Int]) {
  def select(cols: IndexedSeq[Int]): Coded = Coded(groups, cols.map(codes), cols.map(values), cols.map(firstNull))

  /** No groups means an empty fact table, which has nothing to rank; a null
    * value is rejected, naming its attribute (of `attrs`, one per column).
    */
  def requireGroups(attrs: Seq[String]): Unit = {
    if (groups == 0)
      throw new IllegalArgumentException(s"the fact table has no rows to group by ${attrs.mkString("(", ", ", ")")}")
    val nulls = attrs.indices.filter(firstNull(_) >= 0)
    if (nulls.nonEmpty) HierRelation.requireValue(present = false, attrs(nulls.minBy(firstNull)))
  }
}

/** Per-group row counts and Spark's aggregation buffers of the measure,
  * keyed by the grouping attributes' values as an `UnsafeRow` (compared
  * byte for byte): one task's partial aggregate, or their merge on the
  * driver. `n`, `avg` and `m2` are `CentralMomentAgg`'s buffer (count,
  * mean and summed squared deviation of the non-null measures) and `sum` is
  * `Sum`'s and `Average`'s. Updates and merges follow Spark's formulas in
  * Spark's order of operations, and a merge into a new group starts from
  * Spark's empty buffer, so a group whose rows lie in one partition gets
  * Spark's statistics bit for bit. `pack()` lays the keys out back to back
  * in one byte array, so a task ships flat arrays.
  */
private[repro] final class GroupBuffers(val width: Int) extends Serializable {
  var groups = 0
  var rows = new Array[Long](16)
  var n = new Array[Double](16)
  var avg = new Array[Double](16)
  var m2 = new Array[Double](16)
  var sum = new Array[Double](16)
  /** Group `g`'s key is `keyBytes(keyStarts(g) until keyStarts(g + 1))`. */
  var keyBytes: Array[Byte] = Array.emptyByteArray
  var keyStarts: Array[Int] = Array(0)
  @transient private lazy val keys = scala.collection.mutable.ArrayBuffer.empty[UnsafeRow]
  @transient private lazy val index = new java.util.HashMap[UnsafeRow, Integer]()

  /** The group whose key is `key`, added with empty buffers if new. `key`
    * is copied, so the caller may reuse it.
    */
  def groupOf(key: UnsafeRow): Int = {
    val found = index.get(key)
    if (found != null) found
    else { val stored = key.copy(); keys += stored; index.put(stored, groups); add() }
  }

  /** A new group with empty buffers (and no key). */
  def add(): Int = {
    if (groups == rows.length) resize(2 * groups)
    groups += 1
    groups - 1
  }

  /** Group `g`'s key, once packed. */
  def key(g: Int): UnsafeRow = {
    val r = new UnsafeRow(width)
    r.pointTo(keyBytes, Platform.BYTE_ARRAY_OFFSET + keyStarts(g), keyStarts(g + 1) - keyStarts(g))
    r
  }

  /** Spark's update of group `g` by one row whose measure is `x`, or null
    * when `measured` is false.
    */
  def update(g: Int, measured: Boolean, x: Double): Unit = {
    rows(g) += 1
    if (measured) {
      val newN = n(g) + 1.0
      val delta = x - avg(g)
      val deltaN = delta / newN
      avg(g) = avg(g) + deltaN
      m2(g) = m2(g) + delta * (delta - deltaN)
      n(g) = newN
      sum(g) = sum(g) + x
    }
  }

  /** Spark's merge of `o`'s group `og` into group `g`. */
  def merge(g: Int, o: GroupBuffers, og: Int): Unit = {
    rows(g) += o.rows(og)
    val (n1, n2) = (n(g), o.n(og))
    val newN = n1 + n2
    val delta = o.avg(og) - avg(g)
    val deltaN = if (newN == 0.0) 0.0 else delta / newN
    avg(g) = avg(g) + deltaN * n2
    m2(g) = m2(g) + o.m2(og) + delta * deltaN * n1 * n2
    n(g) = newN
    sum(g) = sum(g) + o.sum(og)
  }

  /** Spark's `avg` of group `g`'s measure. */
  def mean(g: Int): Double = sum(g) / n(g)

  /** Spark's `stddev_samp` of group `g`'s measure, 0 for one value. */
  def std(g: Int): Double = if (n(g) <= 1.0) 0.0 else math.sqrt(m2(g) / (n(g) - 1.0))

  /** Trims the buffers to `groups` and packs the keys. */
  def pack(): GroupBuffers = {
    resize(groups)
    keyStarts = keys.scanLeft(0)(_ + _.getSizeInBytes).toArray
    keyBytes = new Array[Byte](keyStarts.last)
    keys.indices.foreach(g => keys(g).writeToMemory(keyBytes, Platform.BYTE_ARRAY_OFFSET + keyStarts(g)))
    this
  }

  private def resize(len: Int): Unit = {
    val l = len max 16
    rows = java.util.Arrays.copyOf(rows, l)
    n = java.util.Arrays.copyOf(n, l)
    avg = java.util.Arrays.copyOf(avg, l)
    m2 = java.util.Arrays.copyOf(m2, l)
    sum = java.util.Arrays.copyOf(sum, l)
  }
}

object GroupBuffers {
  /** One task's pass over its rows: the attribute columns of `types`, then
    * the measure as a double. Every grouping (column indices
    * `groupings(j)`) fills its own buffers in row order, keyed by an
    * `UnsafeRow` of its columns. Float and double keys go through Spark's
    * `NormalizeNaNAndZero`, as in Spark's grouping, so `-0.0` is `0.0`.
    */
  def aggregate(rows: Iterator[InternalRow], types: Array[DataType],
                groupings: Array[Array[Int]]): Array[GroupBuffers] = {
    val measure = types.length
    val projections = groupings.map(cols => UnsafeProjection.create(cols.toSeq.map { c =>
      val ref = BoundReference(c, types(c), nullable = true)
      types(c) match {
        case FloatType | DoubleType => NormalizeNaNAndZero(ref)
        case _                      => ref
      }
    }))
    val bufs = groupings.map(cols => new GroupBuffers(cols.length))
    rows.foreach { row =>
      val measured = !row.isNullAt(measure)
      val x = if (measured) row.getDouble(measure) else 0.0
      var j = 0
      while (j < bufs.length) {
        bufs(j).update(bufs(j).groupOf(projections(j)(row)), measured, x)
        j += 1
      }
    }
    bufs.map(_.pack())
  }
}

/** The data step's task: `GroupBuffers.aggregate` over one partition. */
private[repro] final class AggregateTask(types: Array[DataType], groupings: Array[Array[Int]])
    extends ((TaskContext, Iterator[InternalRow]) => Array[GroupBuffers]) with Serializable {
  def apply(context: TaskContext, rows: Iterator[InternalRow]): Array[GroupBuffers] =
    GroupBuffers.aggregate(rows, types, groupings)
}

/** The data step's rows: `exprs`, bound to the rows of `prev`, evaluated
  * in the task by one `UnsafeProjection`. A named class rather than
  * `mapPartitions`, so no lambda goes through Spark's closure cleaner.
  */
private[repro] final class ScanRDD(prev: RDD[InternalRow], exprs: Seq[Expression])
    extends RDD[InternalRow](prev) {
  override protected def getPartitions: Array[Partition] = firstParent[InternalRow].partitions
  override def compute(split: Partition, context: TaskContext): Iterator[InternalRow] =
    firstParent[InternalRow].iterator(split, context).map(UnsafeProjection.create(exprs))
}

/** The complaint-based drill-down engine (Problem 1).
  *
  * Each invocation runs one map-only Spark stage over the fact table (the
  * data step): every task aggregates its own rows per drill-down group, and
  * the driver merges the tasks' statistics. The driver step derives the
  * hierarchy relations and main-effect features from those groups, trains
  * the multi-level model over the factorised representation of the feature
  * matrix and ranks the groups.
  */
object Reptile {

  /** Group statistics for a drill-down as a DataFrame: one Spark groupBy
    * over the fact table computing the whole distributive set (count /
    * mean / std / sum), the statistics the engine's data step reports.
    * A null measure would make count x mean overstate the group's sum, so
    * it fails the job with an error naming `measure` and the group.
    */
  def drilldownStats(fact: DataFrame, attrs: Seq[String], measure: String): DataFrame = {
    val nulls = count(lit(1)) - count(col(measure))
    val group = concat_ws(", ", attrs.map(a => col(a).cast("string")): _*)
    val checked = when(nulls === 0, count(lit(1)).cast("double")).otherwise(raise_error(concat(
      lit(s"measure $measure is null in "), nulls.cast("string"), lit(" rows of group ("), group, lit(")"))))
    fact.groupBy(attrs.map(col): _*).agg(
      checked.as("stat_count"),
      avg(col(measure)).as("stat_mean"),
      coalesce(stddev_samp(col(measure)), lit(0.0)).as("stat_std"),
      sum(col(measure)).cast("double").as("stat_sum"))
  }

  /** The hierarchies of drilling `targetDim` one level deeper, in matrix
    * order: the drilled other dimensions first, the target last (Section
    * 3.4's attribute-ordering restriction).
    */
  def drilldownOf(dims: Vector[Dimension], drilled: Map[String, Int], targetDim: String): Vector[(Dimension, Int)] = {
    val target = dims.find(_.name == targetDim)
      .getOrElse(throw new IllegalArgumentException(s"unknown dimension $targetDim"))
    val tDepth = drilled.getOrElse(targetDim, 0) + 1
    require(tDepth <= target.attrs.size, s"dimension $targetDim fully drilled")
    val others = dims.filter(d => d.name != targetDim && drilled.getOrElse(d.name, 0) > 0)
    others.map(d => (d, drilled(d.name))) :+ ((target, tDepth))
  }

  /** The data step of one drill-down. */
  def collectDrilldown(fact: DataFrame, used: Vector[(Dimension, Int)], measure: String): Drilldown =
    collectDrilldowns(fact, Vector(used), measure).head

  /** The data step of several drill-downs: one Spark job (`aggregate`). */
  def collectDrilldowns(fact: DataFrame, useds: Vector[Vector[(Dimension, Int)]], measure: String): Vector[Drilldown] = {
    val attrLists = useds.map(Drilldown.attrsOf)
    val groupings = attrLists.distinct
    val (merged, types) = aggregate(fact, groupings, measure)
    useds.zip(attrLists).map { case (used, attrs) =>
      Drilldown.fromBuffers(used, merged(groupings.indexOf(attrs)), attrs.map(types), measure)
    }
  }

  /** One Spark job of one map-only stage over the grouping attributes and
    * the measure. Each task fills one set of `GroupBuffers` per grouping in
    * a single pass over its rows; the driver merges the tasks' buffers in
    * partition order with Spark's merge. The statistics are distributive,
    * so no shuffle is needed: the driver receives every group anyway.
    * Returns each grouping's buffers and each attribute's Spark type. Its
    * steps are `scan`, `partials` and `merge`.
    */
  private[repro] def aggregate(fact: DataFrame, groupings: Vector[Vector[String]],
                               measure: String): (Vector[GroupBuffers], Map[String, DataType]) = {
    val cols = groupings.flatten.distinct
    val (rdd, types) = scan(fact, cols, measure)
    val parts = partials(rdd, types, groupings.map(_.map(cols.indexOf).toArray).toArray)
    (groupings.indices.map(j => merge(parts.map(_(j)), groupings(j).size)).toVector, cols.zip(types).toMap)
  }

  /** The data step's scan: the rows of `cols` then the measure as a
    * double, and the Spark types of `cols`. It reads the fact's own planned
    * RDD (`queryExecution.toRdd`: planned once per Dataset, the plan
    * `fact.collect()` runs), so a call plans nothing, and each task
    * projects the columns out of the fact's rows (`ScanRDD`). The names
    * resolve as `col` resolves them, and the measure's cast is the one
    * `.cast("double")` analyses to.
    */
  private[repro] def scan(fact: DataFrame, cols: Vector[String],
                          measure: String): (RDD[InternalRow], Array[DataType]) = {
    val qe = fact.queryExecution
    val conf = qe.sparkSession.sessionState.conf
    val plan = qe.analyzed
    def quoted(name: String): String = s"`${name.replace("`", "``")}`"
    def resolve(name: String): Expression = plan.resolveQuoted(name, conf.resolver).getOrElse(
      throw new AnalysisException("UNRESOLVED_COLUMN.WITH_SUGGESTION",
        Map("objectName" -> quoted(name), "proposal" -> plan.output.map(a => quoted(a.name)).mkString(", "))))
    val attrs = cols.map(resolve)
    val value = Cast(resolve(measure), DoubleType, Some(conf.sessionLocalTimeZone), EvalMode.fromSQLConf(conf))
    require(value.checkInputDataTypes().isSuccess,
      s"measure $measure of type ${value.child.dataType.simpleString} cannot be cast to double")
    (new ScanRDD(qe.toRdd, (attrs :+ value).map(BindReferences.bindReference(_, plan.output))),
      attrs.map(_.dataType).toArray)
  }

  /** The data step's Spark job: partition `p`'s buffers per grouping
    * (`GroupBuffers.aggregate`) at index `p`, whatever order the tasks
    * finish in. It is submitted with `SparkContext.runJob` and a named
    * task class: Spark's closure cleaner leaves an object that is not a
    * lambda alone, where for `mapPartitions(...).collect()` it re-reads
    * and parses the bytecode of the lambdas' classes on every job.
    */
  private[repro] def partials(rdd: RDD[InternalRow], types: Array[DataType],
                              groupCols: Array[Array[Int]]): Array[Array[GroupBuffers]] = {
    val parts = new Array[Array[GroupBuffers]](rdd.getNumPartitions)
    rdd.sparkContext.runJob(rdd, new AggregateTask(types, groupCols), parts.indices,
      (p: Int, bufs: Array[GroupBuffers]) => parts(p) = bufs)
    parts
  }

  /** One grouping's buffers of every partition, keys `width` wide, merged
    * in partition order.
    */
  private[repro] def merge(parts: Array[GroupBuffers], width: Int): GroupBuffers = {
    val m = new GroupBuffers(width)
    parts.foreach(p => (0 until p.groups).foreach(g => m.merge(m.groupOf(p.key(g)), p, g)))
    m.pack()
  }

  /** Ranks the drill-down groups of one target hierarchy. */
  def rankDim(spark: SparkSession, fact: DataFrame, dims: Vector[Dimension], drilled: Map[String, Int],
              filters: Map[String, String], complaint: Complaint, measure: String, targetDim: String,
              aux: Seq[AuxDataset] = Nil, cfg: ReptileConfig = ReptileConfig()): DimRankResult =
    rank(collectDrilldowns(fact, _, measure), dims, drilled, filters, complaint, Some(targetDim), aux, cfg).head

  /** Ranks every candidate drill-down hierarchy and orders them by how
    * much their best group repair resolves the complaint. All candidates'
    * statistics come from one Spark scan.
    */
  def recommend(spark: SparkSession, fact: DataFrame, dims: Vector[Dimension], drilled: Map[String, Int],
                filters: Map[String, String], complaint: Complaint, measure: String,
                aux: Seq[AuxDataset] = Nil, cfg: ReptileConfig = ReptileConfig()): Vector[DimRankResult] =
    rank(collectDrilldowns(fact, _, measure), dims, drilled, filters, complaint, None, aux, cfg)

  /** `rankDim` of `targetDim`, or `recommend` if `None`, over the
    * drill-downs `data` collects. Each aux dataset is collected at most once.
    */
  private[reptile] def rank(data: Vector[Vector[(Dimension, Int)]] => Vector[Drilldown], dims: Vector[Dimension],
                            drilled: Map[String, Int], filters: Map[String, String], complaint: Complaint,
                            targetDim: Option[String], aux: Seq[AuxDataset], cfg: ReptileConfig): Vector[DimRankResult] = {
    val targets = targetDim.fold(dims.filter(d => drilled.getOrElse(d.name, 0) < d.attrs.size).map(_.name))(Vector(_))
    require(targets.nonEmpty, "no hierarchy left to drill down")
    val auxValues = aux.map(new AuxValues(_))
    data(targets.map(drilldownOf(dims, drilled, _))).map(rankDrilldown(_, filters, complaint, auxValues, cfg))
      .sortBy(_.best.score)
  }

  /** The driver step: trains one model per modelled statistic over the
    * collected drill-down and ranks the sibling groups under the complaint
    * tuple in its last hierarchy.
    */
  def rankDrilldown(
      dd: Drilldown,
      filters: Map[String, String],
      complaint: Complaint,
      aux: Seq[AuxValues],
      cfg: ReptileConfig,
  ): DimRankResult = {
    val (target, tDepth) = dd.used.last
    val kinds: Seq[StatKind] = complaint.agg match {
      case AggType.Count => Seq(StatKind.CountStat)
      case AggType.Mean  => Seq(StatKind.MeanStat)
      case AggType.Std   => Seq(StatKind.MeanStat)
      case AggType.Sum =>
        if (cfg.sumDirect) Seq(StatKind.SumStat) else Seq(StatKind.CountStat, StatKind.MeanStat)
    }

    val groups = dd.candidates(filters)
    val rows = groups.map(_._1).toArray

    // One model per statistic kind, all over the same hierarchies.
    val perKind: Map[StatKind, Array[Double]] = kinds.map { kind =>
      val fm = new FactorizedMatrix(dd.hiers, dd.features(kind, aux, cfg))
      kind -> predictions(fm, dd.observedY(kind, cfg.logTransform), rows, cfg)
    }.toMap

    val obsAll = groups.map(_._3)
    val baselineScore = complaint.score(GroupStats.combine(obsAll))
    val scored = groups.zipWithIndex.map { case ((_, values, obs), ci) =>
      val preds: Map[String, Double] = kinds.map(k => k.name -> perKind(k)(ci)).toMap
      val rep = repair(obs, preds, kinds)
      val residual =
        if (kinds.size == 2) obs.sum - preds("count") * preds("mean") // SUM via count x mean
        else kinds.head match {
          case StatKind.CountStat => obs.count - preds("count")
          case StatKind.MeanStat  => obs.mean - preds("mean")
          case StatKind.SumStat   => obs.sum - preds("sum")
        }
      Candidate(values, obs, rep, preds, complaint.score(GroupStats.combine(obsAll.updated(ci, rep))), residual)
    }
    DimRankResult(target.name, target.attrs(tDepth - 1), scored, baselineScore)
  }

  // ------------------------------------------------------------ internals

  /** y at every row of `fm` from string-keyed groups: `observed` maps each
    * group's values of `allAttrs` (the attributes of `hiers`, in order) to
    * its statistics; a sum is `count x mean`.
    */
  def buildY(
      fm: FactorizedMatrix,
      hiers: Vector[HierRelation],
      allAttrs: Vector[String],
      observed: Map[Vector[String], GroupStats],
      kind: StatKind,
      cfg: ReptileConfig,
  ): Array[Double] = {
    val offsets = hiers.scanLeft(0)(_ + _.depth)
    val (keys, stats) = observed.toVector.unzip
    val (targets, default) = Drilldown.targets(kind, cfg.logTransform, stats, stats.map(_.sum).toArray)
    val y = Array.fill(fm.n)(default)
    keys.indices.foreach { g =>
      y(fm.indexOf(hiers.indices.map(h => hiers(h).rowIndexOf(keys(g).slice(offsets(h), offsets(h + 1)))))) = targets(g)
    }
    y
  }

  /** Random-effect column subset per the config. */
  private def reColsFor(fm: FactorizedMatrix, cfg: ReptileConfig): Option[Array[Int]] =
    cfg.randomEffects match {
      case "all"       => None
      case "intercept" => Some(Array(fm.cols.indexWhere(_.label == "intercept") max 0))
      case other       => throw new IllegalArgumentException(s"unknown randomEffects mode $other")
    }

  /** Predictions at matrix rows `rows`; without `multiLevel`, of OLS (no EM iterations). */
  private def predictions(fm: FactorizedMatrix, y: ObservedY, rows: Array[Int], cfg: ReptileConfig): Array[Double] = {
    val bk = new FactorizedBackend(fm)
    val fit = MultiLevelEM.fit(bk, y, if (cfg.multiLevel) cfg.emIters else 0, cfg.ridge, reColsFor(fm, cfg))
    val raw = MultiLevelEM.predict(bk, fit, rows)
    if (cfg.logTransform) raw.map(v => math.max(math.expm1(v), 0.0)) else raw
  }

  /** Applies the model's expected statistics to a group (f_repair). */
  def repair(obs: GroupStats, preds: Map[String, Double], kinds: Seq[StatKind]): GroupStats = {
    var g = obs
    kinds.foreach {
      case StatKind.CountStat => g = g.copy(count = math.max(preds("count"), 0.0))
      case StatKind.MeanStat  => g = g.copy(mean = preds("mean"))
      case StatKind.SumStat =>
        val s = preds("sum")
        g = if (g.count > 0) g.copy(mean = s / g.count) else GroupStats(1.0, s, 0.0)
    }
    g
  }
}
