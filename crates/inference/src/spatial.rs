//! Uniform-grid spatial index (§4.1: "spatial indexing can further limit
//! the set of variables that must be processed at each time step, since a
//! reader can only observe a small set of objects at a time").

/// A uniform grid over the floor mapping cells → object ids, keyed by
/// each object's current estimated position.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<u32>>,
    /// Current cell of each object and its position in that cell's
    /// bucket (for O(1) relocation).
    locs: Vec<Option<(usize, usize)>>,
}

impl SpatialGrid {
    pub fn new(extent: (f64, f64), cell: f64, num_objects: usize) -> Self {
        assert!(cell > 0.0);
        let cols = (extent.0 / cell).ceil().max(1.0) as usize;
        let rows = (extent.1 / cell).ceil().max(1.0) as usize;
        SpatialGrid {
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            locs: vec![None; num_objects],
        }
    }

    fn cell_of(&self, xy: &[f64; 2]) -> usize {
        let cx = ((xy[0] / self.cell) as isize).clamp(0, self.cols as isize - 1) as usize;
        let cy = ((xy[1] / self.cell) as isize).clamp(0, self.rows as isize - 1) as usize;
        cy * self.cols + cx
    }

    /// Insert or move an object to its new estimated position.
    pub fn update(&mut self, id: u32, xy: &[f64; 2]) {
        let new_cell = self.cell_of(xy);
        if let Some((old, slot)) = self.locs[id as usize] {
            if old == new_cell {
                return;
            }
            let bucket = &mut self.cells[old];
            bucket.swap_remove(slot);
            if let Some(&moved) = bucket.get(slot) {
                self.locs[moved as usize] = Some((old, slot));
            }
        }
        let bucket = &mut self.cells[new_cell];
        self.locs[id as usize] = Some((new_cell, bucket.len()));
        bucket.push(id);
    }

    /// All objects whose estimated position lies within `radius` of `xy`
    /// (cell-conservative: includes everything in touching cells).
    pub fn candidates(&self, xy: &[f64; 2], radius: f64) -> Vec<u32> {
        let r_cells = (radius / self.cell).ceil() as isize;
        let cx = (xy[0] / self.cell) as isize;
        let cy = (xy[1] / self.cell) as isize;
        let mut out = Vec::new();
        for dy in -r_cells..=r_cells {
            let y = cy + dy;
            if y < 0 || y >= self.rows as isize {
                continue;
            }
            for dx in -r_cells..=r_cells {
                let x = cx + dx;
                if x < 0 || x >= self.cols as isize {
                    continue;
                }
                out.extend_from_slice(&self.cells[y as usize * self.cols + x as usize]);
            }
        }
        out
    }

    /// Number of indexed objects (diagnostic).
    pub fn len(&self) -> usize {
        self.locs.iter().filter(|l| l.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut g = SpatialGrid::new((60.0, 60.0), 10.0, 10);
        g.update(0, &[5.0, 5.0]);
        g.update(1, &[55.0, 55.0]);
        g.update(2, &[6.0, 7.0]);
        let near = g.candidates(&[5.0, 5.0], 5.0);
        assert!(near.contains(&0) && near.contains(&2));
        assert!(!near.contains(&1));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn relocation_moves_between_cells() {
        let mut g = SpatialGrid::new((60.0, 60.0), 10.0, 4);
        g.update(0, &[5.0, 5.0]);
        g.update(0, &[55.0, 55.0]);
        assert!(!g.candidates(&[5.0, 5.0], 5.0).contains(&0));
        assert!(g.candidates(&[55.0, 55.0], 5.0).contains(&0));
        assert_eq!(g.len(), 1, "still a single entry");
    }

    #[test]
    fn relocations_keep_every_slot_pointing_at_its_object() {
        // Few cells, many objects, many moves: every removal swaps some
        // other object into the vacated slot.
        let n = 50u32;
        let mut g = SpatialGrid::new((30.0, 30.0), 10.0, n as usize);
        for step in 0..2_000u32 {
            let id = (step * 7) % n;
            let xy = [((step * 13) % 30) as f64, ((step * 17) % 30) as f64];
            g.update(id, &xy);
        }
        for (id, loc) in g.locs.iter().enumerate() {
            if let Some((cell, slot)) = *loc {
                assert_eq!(g.cells[cell][slot], id as u32);
            }
        }
        let indexed: usize = g.cells.iter().map(Vec::len).sum();
        assert_eq!(indexed, g.len(), "each object in exactly one bucket");
    }

    #[test]
    fn candidates_conservative_over_radius() {
        // Everything within `radius` must be returned (may over-return).
        let mut g = SpatialGrid::new((100.0, 100.0), 7.0, 100);
        for i in 0..100u32 {
            let x = (i % 10) as f64 * 10.0 + 1.0;
            let y = (i / 10) as f64 * 10.0 + 1.0;
            g.update(i, &[x, y]);
        }
        let center = [51.0, 51.0];
        let radius = 15.0;
        let cand = g.candidates(&center, radius);
        for i in 0..100u32 {
            let x = (i % 10) as f64 * 10.0 + 1.0;
            let y = (i / 10) as f64 * 10.0 + 1.0;
            let d = ((x - center[0]).powi(2) + (y - center[1]).powi(2)).sqrt();
            if d <= radius {
                assert!(cand.contains(&i), "object {i} at distance {d:.1} missed");
            }
        }
    }

    #[test]
    fn out_of_bounds_positions_clamped() {
        let mut g = SpatialGrid::new((10.0, 10.0), 5.0, 2);
        g.update(0, &[-3.0, 200.0]); // clamps to a corner cell
        assert_eq!(g.len(), 1);
        let c = g.candidates(&[0.0, 10.0], 6.0);
        assert!(c.contains(&0));
    }

    #[test]
    fn candidate_set_much_smaller_than_population() {
        let mut g = SpatialGrid::new((200.0, 200.0), 10.0, 1000);
        for i in 0..1000u32 {
            let x = (i % 40) as f64 * 5.0;
            let y = (i / 40) as f64 * 8.0;
            g.update(i, &[x, y]);
        }
        let cand = g.candidates(&[100.0, 100.0], 20.0);
        assert!(
            cand.len() < 200,
            "spatial index should prune most of 1000 objects, got {}",
            cand.len()
        );
        assert!(!cand.is_empty());
    }
}
