//! Deterministic inputs. Everything the benchmark sends is a pure
//! function of the seed, so two runs with one seed offer the same
//! traffic, and the expected answers are known before the run starts.

use pass_model::{
    ProvenanceBuilder, Reading, SensorId, SiteId, TimeRange, Timestamp, ToolDescriptor, TupleSet,
    TupleSetId,
};
use std::collections::HashMap;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Subscription filter groups: every set carries `group` in `0..GROUPS`.
pub const GROUPS: u64 = 8;
/// The group the `mixed` subscription follows.
pub const WATCHED_GROUP: i64 = 3;
/// Readings per set in every stream.
pub const READINGS: usize = 4;

/// What the generator knows about one set it produced.
#[derive(Debug, Clone)]
pub struct SetInfo {
    pub id: TupleSetId,
    pub uid: i64,
    pub group: i64,
    pub sensor: i64,
    pub created: u64,
    pub parents: Vec<TupleSetId>,
}

struct Spec<'a> {
    site: u32,
    uid: i64,
    group: i64,
    sensor: i64,
    created: u64,
    stage: &'a str,
    parents: &'a [TupleSetId],
}

fn make_set(spec: &Spec<'_>, rng: &mut Rng) -> (TupleSet, SetInfo) {
    let readings: Vec<Reading> = (0..READINGS as u64)
        .map(|r| {
            Reading::new(SensorId(spec.sensor as u64), Timestamp(spec.created + r))
                .with("v", rng.below(100_000) as f64 / 10.0)
        })
        .collect();
    let window =
        TimeRange::new(Timestamp(spec.created), Timestamp(spec.created + READINGS as u64 - 1));
    let mut builder = ProvenanceBuilder::new(SiteId(spec.site), Timestamp(spec.created))
        .attr("domain", "perfbench")
        .attr("uid", spec.uid)
        .attr("group", spec.group)
        .attr("sensor", spec.sensor)
        .attr("stage", spec.stage)
        .time_range(window);
    for &parent in spec.parents {
        builder = builder.derived_from(parent, ToolDescriptor::new(spec.stage, "1"));
    }
    let record = builder.build(TupleSet::content_digest_of(&readings));
    let info = SetInfo {
        id: record.id,
        uid: spec.uid,
        group: spec.group,
        sensor: spec.sensor,
        created: spec.created,
        parents: spec.parents.to_vec(),
    };
    (TupleSet::new_unchecked(record, readings), info)
}

/// One publisher's stream of sets. Every fourth set derives from an
/// earlier set of the same stream, so commits intern ancestry edges.
#[derive(Debug, Clone)]
pub struct Stream {
    site: u32,
    uid_base: i64,
    sensors: i64,
    next: u64,
    rng: Rng,
    produced: Vec<TupleSetId>,
}

impl Stream {
    /// `site` keeps streams' ids and uids disjoint; `sensors` is the
    /// number of distinct `sensor` values the stream spreads over.
    pub fn new(seed: u64, site: u32, sensors: i64) -> Stream {
        Stream {
            site,
            uid_base: i64::from(site) * 100_000_000,
            sensors,
            next: 0,
            rng: Rng::new(seed, u64::from(site)),
            produced: Vec::new(),
        }
    }

    /// The next `sets` sets. Parents come from earlier batches only.
    pub fn batch(&mut self, sets: usize) -> (Vec<TupleSet>, Vec<SetInfo>) {
        let earlier = self.produced.len() as u64;
        let mut out = Vec::with_capacity(sets);
        let mut infos = Vec::with_capacity(sets);
        for _ in 0..sets {
            let k = self.next;
            self.next += 1;
            let parent = (k % 4 == 3 && earlier > 0)
                .then(|| self.produced[self.rng.below(earlier) as usize]);
            let spec = Spec {
                site: self.site,
                uid: self.uid_base + k as i64,
                group: self.rng.below(GROUPS) as i64,
                sensor: self.rng.below(self.sensors as u64) as i64,
                created: (u64::from(self.site) << 40) + k * 10,
                stage: if parent.is_some() { "derived" } else { "raw" },
                parents: parent.as_slice(),
            };
            let (set, info) = make_set(&spec, &mut self.rng);
            out.push(set);
            infos.push(info);
        }
        self.produced.extend(infos.iter().map(|i| i.id));
        (out, infos)
    }
}

/// Sensors in the lineage pipeline: with ~9 records per unit this puts
/// ~1 000 records under each `sensor` value at 100k records.
pub const PIPELINE_SENSORS: i64 = 100;

/// A sensor pipeline: per unit, 4 raw sets, 4 calibrated sets (one per
/// raw parent), and one aggregate over the 4 calibrated sets plus the
/// sensor's previous aggregate. `ANCESTORS OF <aggregate>` therefore
/// reaches depth ≥ 3 through the aggregate chain.
pub struct Pipeline {
    /// Sets in commit order.
    pub sets: Vec<TupleSet>,
    pub info: Vec<SetInfo>,
    /// Indexes into `info` of every aggregate.
    pub aggregates: Vec<usize>,
    /// Indexes into `info`, per sensor, in creation order.
    pub by_sensor: HashMap<i64, Vec<usize>>,
    pub by_id: HashMap<TupleSetId, usize>,
    pub first_created: u64,
    pub last_created: u64,
}

impl Pipeline {
    pub fn build(seed: u64, records: usize, sensors: i64) -> Pipeline {
        let mut rng = Rng::new(seed, 0);
        let mut sets = Vec::with_capacity(records + 9);
        let mut info: Vec<SetInfo> = Vec::with_capacity(records + 9);
        let mut aggregates = Vec::new();
        let mut last_aggregate: HashMap<i64, TupleSetId> = HashMap::new();
        let mut created = 1_000u64;
        let mut push = |spec: Spec<'_>, rng: &mut Rng, sets: &mut Vec<TupleSet>| {
            let (set, i) = make_set(&spec, rng);
            sets.push(set);
            info.push(i);
            info.len() - 1
        };
        let mut unit = 0i64;
        while sets.len() < records {
            let sensor = unit % sensors;
            let group = rng.below(GROUPS) as i64;
            let mut calibrated = Vec::with_capacity(4);
            for _ in 0..4 {
                let raw = Spec {
                    site: 0,
                    uid: sets.len() as i64,
                    group,
                    sensor,
                    created,
                    stage: "raw",
                    parents: &[],
                };
                created += 10;
                let raw_at = push(raw, &mut rng, &mut sets);
                let raw_id = [sets[raw_at].provenance.id];
                let cal = Spec {
                    site: 0,
                    uid: sets.len() as i64,
                    group,
                    sensor,
                    created,
                    stage: "calibrate",
                    parents: &raw_id,
                };
                created += 10;
                let cal_at = push(cal, &mut rng, &mut sets);
                calibrated.push(sets[cal_at].provenance.id);
            }
            let mut parents = calibrated;
            parents.extend(last_aggregate.get(&sensor).copied());
            let agg = Spec {
                site: 0,
                uid: sets.len() as i64,
                group,
                sensor,
                created,
                stage: "aggregate",
                parents: &parents,
            };
            created += 10;
            let agg_at = push(agg, &mut rng, &mut sets);
            last_aggregate.insert(sensor, sets[agg_at].provenance.id);
            aggregates.push(agg_at);
            unit += 1;
        }
        let mut by_sensor: HashMap<i64, Vec<usize>> = HashMap::new();
        let mut by_id = HashMap::with_capacity(info.len());
        for (at, i) in info.iter().enumerate() {
            by_sensor.entry(i.sensor).or_default().push(at);
            by_id.insert(i.id, at);
        }
        let first_created = info.first().map_or(0, |i| i.created);
        let last_created = info.last().map_or(0, |i| i.created);
        Pipeline { sets, info, aggregates, by_sensor, by_id, first_created, last_created }
    }

    /// Ancestors of `id` within `depth` hops (the root excluded).
    pub fn ancestors(&self, id: TupleSetId, depth: u32) -> Vec<TupleSetId> {
        let mut seen: HashMap<TupleSetId, ()> = HashMap::new();
        let mut frontier = vec![id];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in frontier {
                let Some(&at) = self.by_id.get(&node) else { continue };
                for &p in &self.info[at].parents {
                    if seen.insert(p, ()).is_none() {
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        let mut out: Vec<TupleSetId> = seen.into_keys().collect();
        out.sort();
        out
    }

    /// The newest `n` sets of `sensor`, newest first.
    pub fn latest(&self, sensor: i64, n: usize) -> Vec<TupleSetId> {
        let all = self.by_sensor.get(&sensor).map(Vec::as_slice).unwrap_or_default();
        all.iter().rev().take(n).map(|&at| self.info[at].id).collect()
    }
}
