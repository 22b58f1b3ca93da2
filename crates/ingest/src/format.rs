//! Input formats and auto-detection.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// The dataset formats the paper's §2.1 merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Plain whitespace edge list: two AS numbers per line, `#`
    /// comments (the workspace's native format and the IRL dump shape).
    EdgeList,
    /// CAIDA-style AS links: `TAG\tAS1\tAS2[\t...]` where `TAG` is
    /// `D` (direct), `I` (indirect), `M` (multi-origin), or `T`
    /// (unresolved), and an AS field may be a `,`/`_`-separated
    /// multi-origin set expanded to its cross product.
    AsLinks,
    /// DIMES-like CSV: first two comma-separated columns are AS
    /// numbers (optionally `AS`-prefixed), extra columns ignored, an
    /// optional leading header row skipped.
    Dimes,
}

impl Format {
    /// Short machine-readable name, as accepted by [`FromStr`].
    pub fn as_str(self) -> &'static str {
        match self {
            Format::EdgeList => "edges",
            Format::AsLinks => "aslinks",
            Format::Dimes => "dimes",
        }
    }

    /// Guesses the format of a source from its file name and the first
    /// chunk of its content.
    ///
    /// Extension wins when it is unambiguous (`.aslinks`/`.links`,
    /// `.csv`/`.dimes`, `.edges`); otherwise the first non-comment,
    /// non-blank line is sniffed: a known single-letter tag means
    /// AS links, a comma means CSV, anything else is an edge list.
    /// Detection only picks a parser — a mis-detected hostile file
    /// still faces the full strict taxonomy of whichever parser runs.
    pub fn detect(path: &Path, head: &[u8]) -> Format {
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase);
        match ext.as_deref() {
            Some("aslinks" | "links") => return Format::AsLinks,
            Some("csv" | "dimes") => return Format::Dimes,
            Some("edges") => return Format::EdgeList,
            _ => {}
        }
        Self::sniff(head)
    }

    /// Content-only detection over the first chunk of a source.
    pub fn sniff(head: &[u8]) -> Format {
        // LineReader strips a leading UTF-8 BOM before parsing; sniff
        // the same bytes the parser will see, or a BOM'd AS-links file
        // misdetects (first field becomes BOM+tag).
        let head = head
            .strip_prefix(b"\xEF\xBB\xBF".as_slice())
            .unwrap_or(head);
        for line in head.split(|&b| b == b'\n') {
            let line = trim_ascii(line);
            if line.is_empty() || line[0] == b'#' {
                continue;
            }
            let first_field_len = line
                .iter()
                .position(|&b| b == b' ' || b == b'\t')
                .unwrap_or(line.len());
            if first_field_len == 1 && matches!(line[0], b'D' | b'I' | b'M' | b'T') {
                return Format::AsLinks;
            }
            if line.contains(&b',') {
                return Format::Dimes;
            }
            return Format::EdgeList;
        }
        Format::EdgeList
    }
}

fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let [b' ' | b'\t' | b'\r', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t' | b'\r'] = s {
        s = rest;
    }
    s
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "edges" | "edgelist" => Ok(Format::EdgeList),
            "aslinks" => Ok(Format::AsLinks),
            "dimes" | "csv" => Ok(Format::Dimes),
            other => Err(format!(
                "unknown format {other:?} (expected edges, aslinks, or dimes)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn extension_wins() {
        for (name, want) in [
            ("x.aslinks", Format::AsLinks),
            ("x.links", Format::AsLinks),
            ("x.csv", Format::Dimes),
            ("x.dimes", Format::Dimes),
            ("x.edges", Format::EdgeList),
        ] {
            assert_eq!(Format::detect(&PathBuf::from(name), b"1,2"), want, "{name}");
        }
    }

    #[test]
    fn sniffing_handles_comments_and_tags() {
        assert_eq!(Format::sniff(b"# c\n\nD\t1\t2\n"), Format::AsLinks);
        assert_eq!(Format::sniff(b"I 1 2\n"), Format::AsLinks);
        assert_eq!(Format::sniff(b"# c\n1,2,x\n"), Format::Dimes);
        assert_eq!(Format::sniff(b"1 2\n"), Format::EdgeList);
        assert_eq!(Format::sniff(b""), Format::EdgeList);
        // "Dense" numeric first field is not a tag.
        assert_eq!(Format::sniff(b"12 34\n"), Format::EdgeList);
    }

    #[test]
    fn sniffing_ignores_a_leading_bom() {
        assert_eq!(Format::sniff(b"\xEF\xBB\xBFD\t1\t2\n"), Format::AsLinks);
        assert_eq!(Format::sniff(b"\xEF\xBB\xBF1,2\n"), Format::Dimes);
        assert_eq!(Format::sniff(b"\xEF\xBB\xBF1 2\n"), Format::EdgeList);
    }

    #[test]
    fn parse_round_trips() {
        for f in [Format::EdgeList, Format::AsLinks, Format::Dimes] {
            assert_eq!(f.as_str().parse::<Format>().unwrap(), f);
        }
        assert!("banana".parse::<Format>().is_err());
    }
}
