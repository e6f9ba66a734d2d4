//! Keyword index over annotations and descriptions.
//!
//! "Such descriptions and annotations must also be searchable" (§I). A
//! plain inverted text index: lowercase alphanumeric tokenization, token →
//! posting list.

use crate::arena::NodeIdx;
use crate::pmap::PMap;
use crate::posting::{PostingList, Postings};

/// Splits text into lowercase alphanumeric tokens, dropping one-character
/// tokens (noise at our scales).
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| t.len() > 1).map(str::to_lowercase)
}

/// An inverted text index over persistent containers (a clone shares
/// them, as in [`crate::AttrIndex`]).
#[derive(Debug, Default, Clone)]
pub struct KeywordIndex {
    postings: PMap<String, Postings>,
    documents: u64,
}

impl KeywordIndex {
    /// An empty index.
    pub fn new() -> Self {
        KeywordIndex::default()
    }

    /// Indexes one document's text under a node.
    pub fn insert(&mut self, idx: NodeIdx, text: &str) {
        self.insert_bulk([(idx, text)]);
    }

    /// Bulk-indexes many documents at once: tokenizes everything, sorts
    /// the `(token, node)` pairs, and merges each token's sorted node run
    /// into its posting list in one pass.
    pub fn insert_bulk<'a>(&mut self, docs: impl IntoIterator<Item = (NodeIdx, &'a str)>) {
        let mut pairs: Vec<(String, NodeIdx)> = Vec::new();
        for (idx, text) in docs {
            pairs.extend(tokenize(text).map(|t| (t, idx)));
            self.documents += 1;
        }
        pairs.sort_unstable();
        let mut pairs = pairs.into_iter().peekable();
        let mut run: Vec<NodeIdx> = Vec::new();
        while let Some((token, idx)) = pairs.next() {
            run.clear();
            run.push(idx);
            while let Some((_, nidx)) = pairs.next_if(|(t, _)| *t == token) {
                run.push(nidx);
            }
            match self.postings.get_mut(&token) {
                Some(postings) => postings.extend_sorted(&run),
                None => {
                    self.postings.insert(token, Postings::from_run(&run));
                }
            }
        }
    }

    /// Nodes whose indexed text contains the token.
    pub fn lookup(&self, token: &str) -> PostingList {
        self.postings.get(&token.to_lowercase()).map(Postings::to_list).unwrap_or_default()
    }

    /// Nodes containing *all* tokens of the phrase (bag-of-words AND; no
    /// positional information is kept).
    pub fn lookup_all(&self, phrase: &str) -> PostingList {
        let lists: Vec<PostingList> = tokenize(phrase).map(|t| self.lookup(&t)).collect();
        if lists.is_empty() {
            return PostingList::new();
        }
        PostingList::intersect_all(lists.iter().collect())
    }

    /// Distinct tokens indexed.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Documents indexed.
    pub fn documents(&self) -> u64 {
        self.documents
    }

    /// Rough heap footprint.
    pub fn size_bytes(&self) -> usize {
        self.postings.iter().map(|(tok, pl)| tok.len() + pl.size_bytes() + 48).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_lowercases_and_splits() {
        let toks: Vec<_> = tokenize("Sensor #12 replaced; firmware v2.1!").collect();
        assert_eq!(toks, vec!["sensor", "12", "replaced", "firmware", "v2"]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut ix = KeywordIndex::new();
        ix.insert(0, "Pulse Oximeter calibrated");
        assert_eq!(ix.lookup("PULSE").as_slice(), &[0]);
        assert_eq!(ix.lookup("calibrated").as_slice(), &[0]);
        assert!(ix.lookup("missing").is_empty());
    }

    #[test]
    fn lookup_all_requires_every_token() {
        let mut ix = KeywordIndex::new();
        ix.insert(0, "sensor replaced with newer model");
        ix.insert(1, "sensor firmware upgraded");
        assert_eq!(ix.lookup_all("sensor replaced").as_slice(), &[0]);
        assert_eq!(ix.lookup_all("sensor").as_slice(), &[0, 1]);
        assert!(ix.lookup_all("sensor missing").is_empty());
        assert!(ix.lookup_all("").is_empty());
    }

    #[test]
    fn multiple_documents_per_node_accumulate() {
        let mut ix = KeywordIndex::new();
        ix.insert(3, "first note");
        ix.insert(3, "second note");
        assert_eq!(ix.lookup("note").as_slice(), &[3]);
        assert_eq!(ix.documents(), 2);
        assert!(ix.vocabulary_size() >= 3);
    }
}
