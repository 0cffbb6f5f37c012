package repro.core.frep

import scala.collection.mutable

sealed trait DrillStrategy
object DrillStrategy {
  /** Rebuild every hierarchy on each invocation. */
  case object Static extends DrillStrategy
  /** Rebuild only the drill-down hierarchy; update the others' zoom
    * scalars in O(1) using hierarchy independence (Section 4.4).
    */
  case object Dynamic extends DrillStrategy
  /** Dynamic plus a cache of per-(hierarchy, depth) relations reused
    * across successive Reptile invocations (Appendix J).
    */
  case object DynamicCached extends DrillStrategy
}

/** Drill-down state across successive Reptile invocations.
  *
  * Within one hierarchy the decomposed aggregates of Section 4.2.1 are the
  * runs of its sorted relation at the drilled depth: a value's COUNT is
  * the length of its run in `segments`, the COF of a value and an ancestor
  * is the value's COUNT, and TOTAL is `total`. Global aggregates are these
  * scaled by the product of the other hierarchies' TOTALs ("zoom"
  * scalars); hierarchy independence means cross-hierarchy COF is a
  * cartesian product and is never materialized.
  *
  * `evaluate(target)` plays one candidate drill-down inside one Reptile
  * invocation: it produces the relation of every hierarchy with `target`
  * drilled one level deeper, per the configured strategy.
  * `commit(target)` makes the drill permanent (the user picked it).
  */
final class DrilldownSession(
    val fullRelations: Vector[HierRelation],
    val strategy: DrillStrategy,
    initialDepths: Map[String, Int],
) {
  private val depths = mutable.Map.from(initialDepths)
  private val current = mutable.Map.empty[String, HierRelation]
  private val cache = mutable.Map.empty[(String, Int), HierRelation]
  /** Number of relations rebuilt (for assertions). */
  var recomputations: Int = 0

  private def relOf(dim: String): HierRelation =
    fullRelations.find(_.dim == dim).getOrElse(throw new NoSuchElementException(dim))

  private def computeAt(dim: String, depth: Int): HierRelation = {
    strategy match {
      case DrillStrategy.DynamicCached =>
        cache.getOrElseUpdate((dim, depth), { recomputations += 1; relOf(dim).truncate(depth) })
      case _ =>
        recomputations += 1
        relOf(dim).truncate(depth)
    }
  }

  /** The relation of every hierarchy with `target` one level deeper, plus
    * the per-hierarchy zoom scalars that lift its aggregates to global ones.
    */
  def evaluate(target: String): (Map[String, HierRelation], Map[String, Double]) = {
    val evalDepths = depths.toMap.updated(target, depths.getOrElse(target, 0) + 1)
    val rels: Map[String, HierRelation] = strategy match {
      case DrillStrategy.Static =>
        evalDepths.collect { case (d, dep) if dep > 0 => d -> computeAt(d, dep) }
      case DrillStrategy.Dynamic | DrillStrategy.DynamicCached =>
        evalDepths.collect {
          case (d, dep) if dep > 0 =>
            if (d == target) d -> computeAt(d, dep)
            else
              d -> current.getOrElseUpdate(d, computeAt(d, dep)) // O(1) reuse once warm
        }
    }
    val totals = rels.map { case (d, r) => d -> r.total }
    val zooms = rels.map { case (d, _) =>
      d -> totals.collect { case (o, t) if o != d => t.toDouble }.product
    }
    (rels, zooms)
  }

  def commit(target: String): Unit = {
    val newDepth = depths.getOrElse(target, 0) + 1
    depths.update(target, newDepth)
    current.remove(target) // its stored relation is for the old depth
    current.update(target, computeAt(target, newDepth))
  }

  def depthOf(dim: String): Int = depths.getOrElse(dim, 0)
}
