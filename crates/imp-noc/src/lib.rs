//! 2-D mesh network-on-chip model.
//!
//! Matches the paper's Table 1: an N-tile mesh (sqrt(N) x sqrt(N)) with
//! X-Y dimension-ordered routing, a 2-cycle hop latency (1 router +
//! 1 link) and 64-bit flits. Links are modelled as resources with a
//! next-free time, giving both zero-load latency and bandwidth contention;
//! traffic is accounted in flit-hops (the metric behind Figure 12).
//!
//! Memory controllers are placed in a "diamond"-style diagonal pattern
//! (one per row and column), following the placement study the paper cites
//! for uniform traffic distribution on meshes with X-Y routing.
//!
//! # Example
//!
//! ```
//! use imp_noc::Mesh;
//!
//! let mut mesh = Mesh::new(8, 2, 8); // 64 tiles, 2-cycle hops, 8 B flits
//! let (arrival, flit_hops) = mesh.send(0, 63, 64, 1000);
//! assert!(arrival > 1000);
//! assert!(flit_hops > 0);
//! ```

use imp_common::Cycle;

/// Direction of a mesh link leaving a tile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }
}

/// A 2-D mesh with X-Y routing and per-link contention.
#[derive(Debug)]
pub struct Mesh {
    side: u32,
    hop_latency: Cycle,
    flit_bytes: u64,
    /// next-free time for each directed link, indexed `tile * 4 + dir`.
    link_free: Vec<Cycle>,
    /// Cumulative flit-hops (traffic metric).
    flit_hops: u64,
    /// Messages sent.
    messages: u64,
}

impl Mesh {
    /// Creates a `side x side` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `side` is zero.
    pub fn new(side: u32, hop_latency: Cycle, flit_bytes: u64) -> Self {
        assert!(side > 0, "mesh side must be positive");
        Mesh {
            side,
            hop_latency,
            flit_bytes,
            link_free: vec![0; (side * side * 4) as usize],
            flit_hops: 0,
            messages: 0,
        }
    }

    /// Mesh side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Number of tiles.
    pub fn tiles(&self) -> u32 {
        self.side * self.side
    }

    /// (x, y) coordinates of a tile id.
    pub fn coords(&self, tile: u32) -> (u32, u32) {
        (tile % self.side, tile / self.side)
    }

    /// Tile id at (x, y).
    pub fn tile_at(&self, x: u32, y: u32) -> u32 {
        y * self.side + x
    }

    /// Manhattan hop count between two tiles.
    pub fn hops(&self, src: u32, dst: u32) -> u32 {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        sx.abs_diff(dx) + sy.abs_diff(dy)
    }

    /// Number of flits for a message with `payload_bytes` of data:
    /// one header flit plus the payload.
    pub fn flits_for(&self, payload_bytes: u64) -> u64 {
        1 + payload_bytes.div_ceil(self.flit_bytes)
    }

    /// Visits the directed links of the X-Y route from `src` to `dst`
    /// in traversal order. The route is deterministic, so `send` charges
    /// link occupancy inline through this walk instead of materializing
    /// a path vector per message.
    #[inline]
    fn walk_route(&self, src: u32, dst: u32, mut f: impl FnMut(usize)) {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        while x != dx {
            let dir = if dx > x { Dir::East } else { Dir::West };
            f((self.tile_at(x, y) * 4) as usize + dir.index());
            if dx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dy {
            let dir = if dy > y { Dir::South } else { Dir::North };
            f((self.tile_at(x, y) * 4) as usize + dir.index());
            if dy > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
    }

    /// The sequence of directed links an X-Y-routed message traverses.
    #[cfg(test)]
    fn route(&self, src: u32, dst: u32) -> Vec<usize> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut links = Vec::with_capacity(self.hops(src, dst) as usize);
        while x != dx {
            let dir = if dx > x { Dir::East } else { Dir::West };
            links.push((self.tile_at(x, y) * 4) as usize + dir.index());
            if dx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dy {
            let dir = if dy > y { Dir::South } else { Dir::North };
            links.push((self.tile_at(x, y) * 4) as usize + dir.index());
            if dy > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
        links
    }

    /// Sends a message of `payload_bytes` from `src` to `dst` at time
    /// `now`. Returns `(arrival_time, flit_hops_consumed)` and updates
    /// link occupancy and traffic counters.
    ///
    /// Same-tile delivery costs one cycle and no NoC traffic.
    pub fn send(&mut self, src: u32, dst: u32, payload_bytes: u64, now: Cycle) -> (Cycle, u64) {
        self.messages += 1;
        if src == dst {
            return (now + 1, 0);
        }
        let flits = self.flits_for(payload_bytes);
        let mut t = now;
        let mut hops = 0u64;
        let hop_latency = self.hop_latency;
        // Move the occupancy array out so the route walk (immutable
        // borrow of the grid geometry) can charge links as it goes.
        let mut link_free = std::mem::take(&mut self.link_free);
        self.walk_route(src, dst, |link| {
            // Head flit waits for the link, then takes one hop.
            t = t.max(link_free[link]) + hop_latency;
            // The tail occupies the link for the remaining flits.
            link_free[link] = t + flits - 1;
            hops += 1;
        });
        self.link_free = link_free;
        let arrival = t + flits - 1;
        let fh = flits * hops;
        self.flit_hops += fh;
        (arrival, fh)
    }

    /// Cumulative flit-hops moved so far.
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// Tiles hosting the memory controllers: a diagonal ("diamond"-style)
/// placement with one controller per mesh row, staggered by half the side
/// so that X-Y-routed traffic spreads over rows and columns.
///
/// # Panics
///
/// Panics if `count` is zero or exceeds the tile count.
pub fn mc_tiles(side: u32, count: u32) -> Vec<u32> {
    assert!(
        count > 0 && count <= side * side,
        "invalid controller count"
    );
    (0..count)
        .map(|i| {
            let x = (i * side + side / 2) / count % side;
            let y = (x + side / 2) % side;
            y * side + x
        })
        .collect()
}

/// Home memory controller for a cache line, interleaved by line address.
pub fn mc_for_line(line_number: u64, mc_count: u32) -> u32 {
    (line_number % u64::from(mc_count)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_matches_hops_and_flits() {
        let mut m = Mesh::new(4, 2, 8);
        // 0 -> 15 is 3 + 3 = 6 hops; 64 B payload = 9 flits.
        let (arrival, fh) = m.send(0, 15, 64, 100);
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(arrival, 100 + 6 * 2 + 9 - 1);
        assert_eq!(fh, 9 * 6);
    }

    #[test]
    fn same_tile_is_free() {
        let mut m = Mesh::new(4, 2, 8);
        let (arrival, fh) = m.send(5, 5, 64, 100);
        assert_eq!(arrival, 101);
        assert_eq!(fh, 0);
        assert_eq!(m.flit_hops(), 0);
    }

    #[test]
    fn contention_serializes_messages_on_shared_links() {
        let mut a = Mesh::new(4, 2, 8);
        let (t1, _) = a.send(0, 3, 64, 0);
        let (t2, _) = a.send(0, 3, 64, 0); // same path, same time
        assert!(t2 > t1, "second message must queue behind the first");

        // Disjoint paths do not interfere.
        let mut b = Mesh::new(4, 2, 8);
        let (t3, _) = b.send(0, 3, 64, 0);
        let (t4, _) = b.send(12, 15, 64, 0);
        assert_eq!(t3, t4);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = Mesh::new(4, 2, 8);
        // From (0,0) to (2,1): two east links then one south link.
        let path = m.route(0, m.tile_at(2, 1));
        assert_eq!(path.len(), 3);
        // East = dir 0 from tiles (0,0) and (1,0); South = dir 3 from (2,0).
        assert_eq!(path[0], (m.tile_at(0, 0) * 4) as usize);
        assert_eq!(path[1], (m.tile_at(1, 0) * 4) as usize);
        assert_eq!(path[2], (m.tile_at(2, 0) * 4 + 3) as usize);
    }

    #[test]
    fn route_length_equals_manhattan_distance() {
        let m = Mesh::new(8, 2, 8);
        for src in [0u32, 17, 42, 63] {
            for dst in [0u32, 5, 33, 63] {
                assert_eq!(m.route(src, dst).len() as u32, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn mc_placement_spreads_rows_and_columns() {
        for side in [4u32, 8, 16] {
            let mcs = mc_tiles(side, side);
            assert_eq!(mcs.len(), side as usize);
            let mut xs: Vec<u32> = mcs.iter().map(|t| t % side).collect();
            let mut ys: Vec<u32> = mcs.iter().map(|t| t / side).collect();
            xs.sort_unstable();
            xs.dedup();
            ys.sort_unstable();
            ys.dedup();
            assert_eq!(xs.len(), side as usize, "one MC per column (side {side})");
            assert_eq!(ys.len(), side as usize, "one MC per row (side {side})");
        }
    }

    #[test]
    fn mc_interleaving_covers_all_controllers() {
        let mut seen = [false; 8];
        for line in 0..64u64 {
            seen[mc_for_line(line, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flit_count_includes_header() {
        let m = Mesh::new(4, 2, 8);
        assert_eq!(m.flits_for(0), 1); // header only (e.g. a request)
        assert_eq!(m.flits_for(8), 2);
        assert_eq!(m.flits_for(64), 9);
        assert_eq!(m.flits_for(9), 3); // rounds up
    }
}
