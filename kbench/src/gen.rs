//! Seeded inputs: the AS-number relabelling, the dirty measurement
//! sources each batch workload ingests, and the query stream the
//! daemon is driven with. Everything here is a pure function of the
//! seed and the generator graph, so the same seed gives the same bytes.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough to drive input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of the run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A seeded permutation of the 32-bit AS-number space: generator vertex
/// `v` is published as AS `asn(v)`. Every step is a bijection on `u32`,
/// so distinct vertices always get distinct AS numbers, and the rank
/// order ingest assigns internal ids by has nothing to do with the
/// generator's vertex order.
#[derive(Debug, Clone, Copy)]
pub struct AsnMap {
    keys: [u32; 3],
}

impl AsnMap {
    /// The permutation for run seed `seed`.
    pub fn new(seed: u64) -> AsnMap {
        let mut r = Rng::new(seed, 1);
        AsnMap {
            keys: [
                r.next_u64() as u32,
                r.next_u64() as u32,
                r.next_u64() as u32,
            ],
        }
    }

    /// The AS number of generator vertex `v`.
    pub fn asn(&self, v: u32) -> u32 {
        let mut x = v ^ self.keys[0];
        x = x.wrapping_mul(0x9E37_79B1);
        x ^= x >> 16;
        x = x.wrapping_add(self.keys[1]);
        x = x.wrapping_mul(0x85EB_CA6B);
        x ^= x >> 13;
        x ^ self.keys[2]
    }
}

/// The three source formats of the paper's §2.1 merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// CAIDA-style `.aslinks`: `D`/`I` tags, multi-origin AS sets.
    AsLinks,
    /// DIMES-style `.csv` with a header row.
    Dimes,
    /// Plain `.edges` list.
    Edges,
}

impl Style {
    /// The file extension ingest detects the format by.
    pub fn extension(self) -> &'static str {
        match self {
            Style::AsLinks => "aslinks",
            Style::Dimes => "csv",
            Style::Edges => "edges",
        }
    }
}

/// How one source is derived from the generator graph.
#[derive(Debug, Clone, Copy)]
pub struct SourceSpec {
    /// Output format.
    pub style: Style,
    /// Share of generator edges the source observes.
    pub sample: f64,
    /// Extra lines repeating an earlier link (half of them reversed).
    pub duplicate: f64,
    /// Extra lines that lenient ingest must skip and count.
    pub malformed: f64,
    /// Share of adjacent same-origin links folded into one multi-origin
    /// AS-set line (AS links only).
    pub moas: f64,
}

/// What ingest must report after reading every rendered source, counted
/// while the sources were generated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    /// Accepted record lines (duplicates included).
    pub records: u64,
    /// Endpoint pairs those records expand to.
    pub raw_pairs: u64,
    /// Malformed lines injected.
    pub malformed: u64,
    /// Every emitted pair as normalised generator ids, duplicates kept.
    pub pairs: Vec<(u32, u32)>,
}

impl Expected {
    /// Distinct generator-id links among everything emitted.
    pub fn distinct_links(&self) -> Vec<(u32, u32)> {
        let mut links = self.pairs.clone();
        links.sort_unstable();
        links.dedup();
        links
    }
}

/// Renders one source over `edges` (generator ids) into `out`,
/// accounting every record and fault in `expect`.
pub fn render_source(
    edges: &[(u32, u32)],
    map: &AsnMap,
    spec: &SourceSpec,
    rng: &mut Rng,
    expect: &mut Expected,
    out: &mut String,
) {
    // A record is one line: an origin plus one or two far ends.
    let mut records: Vec<(u32, u32, Option<u32>)> = Vec::new();
    for &(u, v) in edges {
        if !rng.chance(spec.sample) {
            continue;
        }
        match records.last_mut() {
            Some((ru, _, far @ None))
                if spec.style == Style::AsLinks && *ru == u && rng.chance(spec.moas) =>
            {
                *far = Some(v);
            }
            _ => records.push((u, v, None)),
        }
    }
    let mut lines: Vec<String> = Vec::with_capacity(records.len() * 21 / 20 + 8);
    for &(u, v, w) in &records {
        lines.push(record_line(spec.style, map, rng, u, v, w));
    }
    let originals = records.len();
    for _ in 0..((originals as f64) * spec.duplicate).round() as usize {
        let (u, v, w) = records[rng.below(originals as u64) as usize];
        records.push((u, v, w));
        lines.push(record_line(spec.style, map, rng, u, v, w));
    }
    for &(u, v, w) in &records {
        expect.records += 1;
        for far in std::iter::once(v).chain(w) {
            expect.raw_pairs += 1;
            expect.pairs.push((u.min(far), u.max(far)));
        }
    }
    let bad = ((originals as f64) * spec.malformed).round() as usize;
    for i in 0..bad {
        let (u, v, _) = records[rng.below(originals as u64) as usize];
        lines.push(malformed_line(spec.style, map.asn(u), map.asn(v), i));
    }
    expect.malformed += bad as u64;
    rng.shuffle(&mut lines);
    match spec.style {
        Style::Dimes => out.push_str("SrcAS,DstAS,Seen\n"),
        _ => out.push_str("# kbench synthetic source\n"),
    }
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
}

fn record_line(
    style: Style,
    map: &AsnMap,
    rng: &mut Rng,
    u: u32,
    v: u32,
    w: Option<u32>,
) -> String {
    let flip = rng.chance(0.5);
    let (a, b) = (map.asn(u), map.asn(v));
    let mut line = String::with_capacity(32);
    match style {
        Style::AsLinks => {
            let tag = if rng.chance(0.8) { 'D' } else { 'I' };
            let far = match w {
                Some(w) => {
                    let sep = if rng.chance(0.5) { '_' } else { ',' };
                    format!("{b}{sep}{}", map.asn(w))
                }
                None => b.to_string(),
            };
            if flip {
                let _ = write!(line, "{tag}\t{far}\t{a}");
            } else {
                let _ = write!(line, "{tag}\t{a}\t{far}");
            }
            if rng.chance(0.3) {
                let _ = write!(line, "\t{}", 1 + rng.below(40));
            }
        }
        Style::Dimes => {
            let (a, b) = if flip { (b, a) } else { (a, b) };
            if rng.chance(0.5) {
                let _ = write!(line, "AS{a},AS{b},{}", 1 + rng.below(500));
            } else {
                let _ = write!(line, "{a},{b},{}", 1 + rng.below(500));
            }
        }
        Style::Edges => {
            let (a, b) = if flip { (b, a) } else { (a, b) };
            let _ = write!(line, "{a} {b}");
        }
    }
    line
}

/// A line every parser rejects as a bad record (never as a comment, a
/// header, or a resource-cap breach), cycling through the failure kinds
/// the lenient skip counters distinguish.
fn malformed_line(style: Style, a: u32, b: u32, i: usize) -> String {
    match (style, i % 4) {
        (Style::AsLinks, 0) => format!("X\t{a}\t{b}"),
        (Style::AsLinks, 1) => format!("D\t{a}"),
        (Style::AsLinks, 2) => format!("D\t{a}\t{b}x"),
        (Style::AsLinks, _) => format!("I\t{a}\t4294967296"),
        (Style::Dimes, 0 | 1) => format!("AS{a}"),
        (Style::Dimes, 2) => format!("AS{a},ASx{b}"),
        (Style::Dimes, _) => format!("{a},99999999999"),
        (Style::Edges, 0) => format!("{a}"),
        (Style::Edges, 1) => format!("{a} {b} {b}"),
        (Style::Edges, 2) => format!("{a} -{b}"),
        (Style::Edges, _) => format!("{a} 4294967296"),
    }
}

/// Zipf(1) over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank, most often 0.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One read request against the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `GET /membership/{as}`
    Membership(u32),
    /// `GET /membership/{as}?k={k}`
    MembershipAt(u32, u32),
    /// `GET /common/{a}/{b}`
    Common(u32, u32),
    /// `GET /tree/k{k}id{idx}`
    Tree(u32, u32),
}

impl Query {
    /// The request target.
    pub fn path(&self) -> String {
        match *self {
            Query::Membership(v) => format!("/membership/{v}"),
            Query::MembershipAt(v, k) => format!("/membership/{v}?k={k}"),
            Query::Common(a, b) => format!("/common/{a}/{b}"),
            Query::Tree(k, idx) => format!("/tree/k{k}id{idx}"),
        }
    }

    /// The full keep-alive request bytes.
    pub fn request(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.1\r\nHost: kbench\r\n\r\n", self.path()).into_bytes()
    }

    /// The lookup family the query exercises.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Membership(_) | Query::MembershipAt(..) => "membership",
            Query::Common(..) => "common",
            Query::Tree(..) => "tree",
        }
    }
}

/// The read mix: 60% membership, 10% membership at one level, 20%
/// common, 10% tree. AS ids are Zipf(1) over `hot` (node ids, most
/// popular first); tree ids are uniform over the communities, whose
/// per-level counts `levels` lists as `(k, count)`.
pub fn query_mix(seed: u64, hot: &[u32], levels: &[(u32, u32)], n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 2);
    let zipf = Zipf::new(hot.len());
    let total: u64 = levels.iter().map(|&(_, c)| u64::from(c)).sum();
    let pick_as = |rng: &mut Rng| hot[zipf.sample(rng)];
    (0..n)
        .map(|_| {
            let roll = rng.below(100);
            match roll {
                0..=59 => Query::Membership(pick_as(&mut rng)),
                60..=69 => {
                    let k = levels[rng.below(levels.len() as u64) as usize].0;
                    Query::MembershipAt(pick_as(&mut rng), k)
                }
                70..=89 => {
                    let a = pick_as(&mut rng);
                    Query::Common(a, pick_as(&mut rng))
                }
                _ => {
                    let mut nth = rng.below(total);
                    let &(k, count) = levels
                        .iter()
                        .find(|&&(_, c)| {
                            let here = nth < u64::from(c);
                            if !here {
                                nth -= u64::from(c);
                            }
                            here
                        })
                        .expect("nth is below the community total");
                    debug_assert!(nth < u64::from(count));
                    Query::Tree(k, nth as u32)
                }
            }
        })
        .collect()
}

/// Node ids by popularity for the query stream: highest degree first,
/// ties by id.
pub fn by_degree(degrees: &[usize]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..degrees.len() as u32).collect();
    ids.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    ids
}
