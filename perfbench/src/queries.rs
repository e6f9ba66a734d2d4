//! Query operations and their expected answers, built from the
//! generator's knowledge of the store. The served run and the in-process
//! replay draw from the same seeded sequence.

use crate::gen::{Pipeline, Rng, SetInfo};
use pass_model::TupleSetId;
use std::collections::HashSet;

/// Query classes; they name the per-class metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Range,
    Latest,
    Lineage,
    Window,
    Paging,
}

impl Class {
    pub const ALL: [Class; 6] =
        [Class::Point, Class::Range, Class::Latest, Class::Lineage, Class::Window, Class::Paging];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Range => "range",
            Class::Latest => "latest",
            Class::Lineage => "lineage",
            Class::Window => "window",
            Class::Paging => "paging",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a correct reply contains.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these ids, in this order.
    Exact(Vec<TupleSetId>),
    /// These ids in any order (the page is not truncated by its limit).
    Set(Vec<TupleSetId>),
    /// A full `limit`-sized page drawn from these ids.
    Subset(HashSet<TupleSetId>),
}

impl Expect {
    /// Checks one reply page against the expectation.
    pub fn check(&self, ids: &[TupleSetId], limit: usize) -> bool {
        match self {
            Expect::Exact(want) => ids == want.as_slice(),
            Expect::Set(want) => {
                let mut got = ids.to_vec();
                got.sort();
                let mut want = want.clone();
                want.sort();
                got == want
            }
            Expect::Subset(pool) => ids.len() == limit && ids.iter().all(|id| pool.contains(id)),
        }
    }
}

/// One query page request.
#[derive(Debug, Clone)]
pub struct QueryOp {
    pub class: Class,
    pub text: String,
    pub limit: u64,
    pub expect: Expect,
}

fn expect_from(ids: Vec<TupleSetId>, limit: usize) -> Expect {
    if ids.len() <= limit {
        Expect::Set(ids)
    } else {
        Expect::Subset(ids.into_iter().collect())
    }
}

/// The `mixed` query stream over its preloaded sets: indexed point
/// lookups and range ∧ equality pages, alternating. Only preloaded uids
/// are addressed, so live publishes never change an answer.
pub fn mixed_query(rng: &mut Rng, preload: &[SetInfo], k: u64) -> QueryOp {
    const LIMIT: usize = 50;
    if k.is_multiple_of(2) {
        let target = &preload[rng.below(preload.len() as u64) as usize];
        QueryOp {
            class: Class::Point,
            text: format!("FIND WHERE uid = {}", target.uid),
            limit: LIMIT as u64,
            expect: Expect::Exact(vec![target.id]),
        }
    } else {
        let group = rng.below(crate::gen::GROUPS) as i64;
        let lo = preload[rng.below(preload.len() as u64) as usize].uid;
        let hi = lo + 300;
        let ids = preload
            .iter()
            .filter(|i| i.group == group && (lo..=hi).contains(&i.uid))
            .map(|i| i.id)
            .collect();
        QueryOp {
            class: Class::Range,
            text: format!("FIND WHERE group = {group} AND uid BETWEEN {lo} AND {hi}"),
            limit: LIMIT as u64,
            expect: expect_from(ids, LIMIT),
        }
    }
}

/// Page size for keyset paging in `lineage_read`.
pub const PAGE: u64 = 100;

/// The `lineage_read` class mix per 20 operations. Classes are dealt
/// from seeded shuffles of this deck, so every run has the same class
/// proportions and a page-latency median that does not drift with them.
const DECK: [(Class, usize); 6] = [
    (Class::Point, 5),
    (Class::Range, 4),
    (Class::Latest, 3),
    (Class::Lineage, 4),
    (Class::Window, 3),
    (Class::Paging, 1),
];

/// One closed-loop client's seeded stream of `lineage_read` operations.
pub struct Deck {
    rng: Rng,
    cards: Vec<Class>,
}

impl Deck {
    pub fn new(rng: Rng) -> Deck {
        Deck { rng, cards: Vec::new() }
    }

    /// The next operation: a class and its first page. Paging operations
    /// resume after each page's last id until a short page.
    pub fn deal(&mut self, pipe: &Pipeline) -> QueryOp {
        if self.cards.is_empty() {
            self.cards = DECK.iter().flat_map(|&(c, n)| std::iter::repeat_n(c, n)).collect();
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        let class = self.cards.pop().unwrap_or(Class::Point);
        lineage_read_op(&mut self.rng, pipe, class)
    }
}

fn lineage_read_op(rng: &mut Rng, pipe: &Pipeline, class: Class) -> QueryOp {
    let n = pipe.info.len() as u64;
    let sensors = pipe.by_sensor.len() as u64;
    match class {
        Class::Point => {
            let at = rng.below(n) as usize;
            QueryOp {
                class,
                text: format!("FIND WHERE uid = {}", pipe.info[at].uid),
                limit: 50,
                expect: Expect::Exact(vec![pipe.info[at].id]),
            }
        }
        Class::Range => {
            let sensor = rng.below(sensors) as i64;
            let lo = rng.below(n) as i64;
            let hi = lo + 4_000;
            let ids = pipe.by_sensor[&sensor]
                .iter()
                .map(|&at| &pipe.info[at])
                .filter(|i| (lo..=hi).contains(&i.uid))
                .map(|i| i.id)
                .collect();
            QueryOp {
                class,
                text: format!("FIND WHERE sensor = {sensor} AND uid BETWEEN {lo} AND {hi}"),
                limit: 50,
                expect: expect_from(ids, 50),
            }
        }
        Class::Latest => {
            let sensor = rng.below(sensors) as i64;
            QueryOp {
                class,
                text: format!("FIND WHERE sensor = {sensor} ORDER BY created DESC"),
                limit: 20,
                expect: Expect::Exact(pipe.latest(sensor, 20)),
            }
        }
        Class::Lineage => {
            let at = pipe.aggregates[rng.below(pipe.aggregates.len() as u64) as usize];
            let id = pipe.info[at].id;
            QueryOp {
                class,
                text: format!("FIND ANCESTORS OF ts:{} DEPTH <= 3", id.full_hex()),
                limit: 200,
                expect: Expect::Set(pipe.ancestors(id, 3)),
            }
        }
        Class::Window => {
            let span = pipe.last_created - pipe.first_created;
            let a = pipe.first_created + rng.below(span);
            let b = a + 300;
            // Sets cover [created, created + 3]; `info` is in created order.
            let from = pipe.info.partition_point(|i| i.created + 3 < a);
            let ids =
                pipe.info[from..].iter().take_while(|i| i.created <= b).map(|i| i.id).collect();
            QueryOp {
                class,
                text: format!("FIND WHERE time OVERLAPS [{a}, {b}]"),
                limit: 50,
                expect: expect_from(ids, 50),
            }
        }
        Class::Paging => {
            let sensor = rng.below(sensors) as i64;
            let ids = pipe.by_sensor[&sensor].iter().map(|&at| pipe.info[at].id).collect();
            QueryOp {
                class,
                text: format!("FIND WHERE sensor = {sensor}"),
                limit: PAGE,
                expect: Expect::Set(ids),
            }
        }
    }
}

/// Accumulates keyset pages of one paging operation.
#[derive(Debug, Default)]
pub struct Paging {
    pub pages: usize,
    pub ids: Vec<TupleSetId>,
}

impl Paging {
    /// Adds a page; returns the `after` token for the next one.
    pub fn push(&mut self, page: &[TupleSetId]) -> Option<TupleSetId> {
        self.pages += 1;
        self.ids.extend_from_slice(page);
        page.last().copied()
    }

    /// The concatenation has no duplicate and covers `expect` exactly.
    pub fn complete(&self, expect: &Expect) -> bool {
        let unique: HashSet<&TupleSetId> = self.ids.iter().collect();
        unique.len() == self.ids.len() && expect.check(&self.ids, usize::MAX)
    }
}
