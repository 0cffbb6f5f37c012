package repro.perfbench

import scala.util.Random

/** A pre-aggregated sales cube: one record per reported (day, store,
  * product), with hierarchies time [month, day], store [region, store] and
  * product. Only a small share of the (day, store) cells is reported, so the
  * model's y over all parallel groups is mostly empty-group defaults — the
  * paper's §5.1.4 worst case for EM training.
  *
  * Each complaint cell has one planted corrupt product. Even-numbered cells
  * get a duplicated record (COUNT too high); odd-numbered cells get an
  * under-reported value (MEAN too low).
  */
object SparseCube {

  final case class Shape(
      months: Int,
      daysPerMonth: Int,
      regions: Int,
      storesPerRegion: Int,
      products: Int,
      /** Reported (day, store) cells. */
      cells: Int,
      /** Share of products present in a reported cell. */
      productShare: Double,
      complaintCells: Int,
  ) {
    def days: Int = months * daysPerMonth
    def stores: Int = regions * storesPerRegion
    /** Rows of the model's feature matrix: every (day, store, product). */
    def n: Long = days.toLong * stores * products
    /** Model clusters: one per (day, store) parent of the product groups. */
    def clusters: Long = days.toLong * stores
  }

  /** The planted error of one complaint cell. */
  final case class Planted(cell: Map[String, String], product: String, countTooHigh: Boolean)

  final case class Cube(rows: Rows, planted: Vector[Planted])

  val Attrs: Vector[String] = Vector("month", "day", "region", "store", "product")
  val Measure = "units"
  /** Extra copies of the planted record in a COUNT-too-high cell. */
  val Duplicates = 3
  /** Factor applied to the planted record in a MEAN-too-low cell. */
  val UnderReport = 0.1

  def generate(shape: Shape, seed: Long): Cube = {
    val rng = new Random(seed)
    def effects(k: Int, sd: Double) = Array.fill(k)(math.exp(sd * rng.nextGaussian()))
    val monthEff = effects(shape.months, 0.2)
    val storeEff = effects(shape.stores, 0.3)
    val productEff = effects(shape.products, 0.5)

    val cells = rng.shuffle((0 until shape.days * shape.stores).toVector).take(shape.cells)
    val keys = Array.newBuilder[Array[String]]
    val values = Array.newBuilder[Double]
    val planted = Vector.newBuilder[Planted]
    cells.zipWithIndex.foreach { case (cell, ci) =>
      val day = cell / shape.stores
      val store = cell % shape.stores
      val month = day / shape.daysPerMonth
      val region = store / shape.storesPerRegion
      val cellKey = Array(f"m$month%02d", f"m$month%02d-d${day % shape.daysPerMonth}%02d",
        f"r$region%02d", f"r$region%02d-s${store % shape.storesPerRegion}%02d")
      val present = (0 until shape.products).filter(_ => rng.nextDouble() < shape.productShare)
      val products = if (present.isEmpty) Vector(rng.nextInt(shape.products)) else present
      val corrupt = if (ci < shape.complaintCells) products(rng.nextInt(products.size)) else -1
      products.foreach { p =>
        val key = cellKey :+ f"p$p%02d"
        val v = 100.0 * monthEff(month) * storeEff(store) * productEff(p) * math.exp(0.1 * rng.nextGaussian())
        val countTooHigh = ci % 2 == 0
        val copies = if (p == corrupt && countTooHigh) 1 + Duplicates else 1
        val value = if (p == corrupt && !countTooHigh) v * UnderReport else v
        (0 until copies).foreach { _ => keys += key; values += value }
      }
      if (corrupt >= 0)
        planted += Planted(Attrs.take(4).zip(cellKey).toMap, f"p$corrupt%02d", ci % 2 == 0)
    }
    Cube(new Rows(Attrs, keys.result(), values.result()), planted.result())
  }
}
