//! Static world geography: continents and countries.
//!
//! The paper's Geographical dataset maps each AS to the set of countries
//! where it has a point of presence (MaxMind GeoLite, April 2010). Our
//! synthetic world uses a fixed country table whose weights approximate
//! the concentration of ASes in large Internet economies, so that
//! country-induced subgraphs (the root-community analysis of §4.3) have
//! realistic size dispersion.

use std::fmt;

/// A continent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Continent {
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Asia.
    Asia,
    /// Oceania.
    Oceania,
    /// Africa.
    Africa,
}

impl Continent {
    /// Number of continents; `continent as usize` is below it (Africa
    /// is the last variant).
    pub(crate) const COUNT: usize = Continent::Africa as usize + 1;
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::SouthAmerica => "SA",
            Continent::Asia => "AS",
            Continent::Oceania => "OC",
            Continent::Africa => "AF",
        };
        f.write_str(s)
    }
}

/// Index of a country in [`World::countries`].
pub type CountryId = u16;

/// One country: ISO-like code, continent, and a sampling weight
/// proportional to how many ASes it hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Country {
    /// Two-letter code.
    pub code: &'static str,
    /// Continent the country belongs to.
    pub continent: Continent,
    /// Relative share of ASes registered here.
    pub weight: f64,
}

/// The static country table.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    countries: Vec<Country>,
}

impl World {
    /// Builds the standard 40-country world.
    pub fn standard() -> Self {
        use Continent::*;
        let countries = vec![
            // Europe (the paper's crown communities live here).
            Country {
                code: "NL",
                continent: Europe,
                weight: 3.0,
            },
            Country {
                code: "DE",
                continent: Europe,
                weight: 5.0,
            },
            Country {
                code: "GB",
                continent: Europe,
                weight: 4.5,
            },
            Country {
                code: "FR",
                continent: Europe,
                weight: 3.0,
            },
            Country {
                code: "IT",
                continent: Europe,
                weight: 2.5,
            },
            Country {
                code: "ES",
                continent: Europe,
                weight: 1.8,
            },
            Country {
                code: "PL",
                continent: Europe,
                weight: 2.2,
            },
            Country {
                code: "RU",
                continent: Europe,
                weight: 6.0,
            },
            Country {
                code: "UA",
                continent: Europe,
                weight: 2.5,
            },
            Country {
                code: "SE",
                continent: Europe,
                weight: 1.5,
            },
            Country {
                code: "CH",
                continent: Europe,
                weight: 1.2,
            },
            Country {
                code: "AT",
                continent: Europe,
                weight: 1.0,
            },
            Country {
                code: "CZ",
                continent: Europe,
                weight: 1.1,
            },
            Country {
                code: "SK",
                continent: Europe,
                weight: 0.6,
            },
            Country {
                code: "RO",
                continent: Europe,
                weight: 1.6,
            },
            Country {
                code: "BG",
                continent: Europe,
                weight: 0.9,
            },
            // North America.
            Country {
                code: "US",
                continent: NorthAmerica,
                weight: 14.0,
            },
            Country {
                code: "CA",
                continent: NorthAmerica,
                weight: 2.0,
            },
            Country {
                code: "MX",
                continent: NorthAmerica,
                weight: 0.8,
            },
            // South America.
            Country {
                code: "BR",
                continent: SouthAmerica,
                weight: 2.5,
            },
            Country {
                code: "AR",
                continent: SouthAmerica,
                weight: 0.9,
            },
            Country {
                code: "CL",
                continent: SouthAmerica,
                weight: 0.5,
            },
            Country {
                code: "CO",
                continent: SouthAmerica,
                weight: 0.5,
            },
            // Asia.
            Country {
                code: "JP",
                continent: Asia,
                weight: 2.0,
            },
            Country {
                code: "CN",
                continent: Asia,
                weight: 2.5,
            },
            Country {
                code: "KR",
                continent: Asia,
                weight: 1.2,
            },
            Country {
                code: "IN",
                continent: Asia,
                weight: 2.0,
            },
            Country {
                code: "ID",
                continent: Asia,
                weight: 1.2,
            },
            Country {
                code: "SG",
                continent: Asia,
                weight: 0.8,
            },
            Country {
                code: "HK",
                continent: Asia,
                weight: 0.9,
            },
            Country {
                code: "TH",
                continent: Asia,
                weight: 0.6,
            },
            Country {
                code: "TR",
                continent: Asia,
                weight: 1.3,
            },
            Country {
                code: "IL",
                continent: Asia,
                weight: 0.6,
            },
            // Oceania.
            Country {
                code: "AU",
                continent: Oceania,
                weight: 1.6,
            },
            Country {
                code: "NZ",
                continent: Oceania,
                weight: 0.6,
            },
            // Africa.
            Country {
                code: "ZA",
                continent: Africa,
                weight: 0.8,
            },
            Country {
                code: "EG",
                continent: Africa,
                weight: 0.4,
            },
            Country {
                code: "NG",
                continent: Africa,
                weight: 0.4,
            },
            Country {
                code: "KE",
                continent: Africa,
                weight: 0.3,
            },
            Country {
                code: "MA",
                continent: Africa,
                weight: 0.3,
            },
        ];
        World { countries }
    }

    /// All countries.
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// The country with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[id as usize]
    }

    /// Number of countries.
    pub fn len(&self) -> usize {
        self.countries.len()
    }

    /// Whether the world has no countries (never true for
    /// [`World::standard`]).
    pub fn is_empty(&self) -> bool {
        self.countries.is_empty()
    }

    /// Id of the country with the given code.
    pub fn id_of(&self, code: &str) -> Option<CountryId> {
        self.countries
            .iter()
            .position(|c| c.code == code)
            .map(|i| i as CountryId)
    }

    /// Ids of all countries in `continent`.
    pub fn countries_in(&self, continent: Continent) -> Vec<CountryId> {
        self.countries
            .iter()
            .enumerate()
            .filter(|(_, c)| c.continent == continent)
            .map(|(i, _)| i as CountryId)
            .collect()
    }

    /// Whether all the given countries lie in one continent; returns that
    /// continent if so and the list is non-empty.
    pub fn common_continent(&self, ids: &[CountryId]) -> Option<Continent> {
        let first = self.country(*ids.first()?).continent;
        ids.iter()
            .all(|&id| self.country(id).continent == first)
            .then_some(first)
    }
}

impl Default for World {
    fn default() -> Self {
        World::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_world_has_40_countries() {
        let w = World::standard();
        assert_eq!(w.len(), 40);
        assert!(!w.is_empty());
    }

    #[test]
    fn codes_are_unique() {
        let w = World::standard();
        let mut codes: Vec<_> = w.countries().iter().map(|c| c.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), w.len());
    }

    #[test]
    fn id_lookup() {
        let w = World::standard();
        let nl = w.id_of("NL").unwrap();
        assert_eq!(w.country(nl).code, "NL");
        assert_eq!(w.country(nl).continent, Continent::Europe);
        assert!(w.id_of("XX").is_none());
    }

    #[test]
    fn continent_filters() {
        let w = World::standard();
        let eu = w.countries_in(Continent::Europe);
        assert_eq!(eu.len(), 16);
        assert!(eu
            .iter()
            .all(|&id| w.country(id).continent == Continent::Europe));
    }

    #[test]
    fn common_continent_detection() {
        let w = World::standard();
        let nl = w.id_of("NL").unwrap();
        let de = w.id_of("DE").unwrap();
        let us = w.id_of("US").unwrap();
        assert_eq!(w.common_continent(&[nl, de]), Some(Continent::Europe));
        assert_eq!(w.common_continent(&[nl, us]), None);
        assert_eq!(w.common_continent(&[]), None);
    }

    #[test]
    fn continent_display_codes() {
        assert_eq!(Continent::Europe.to_string(), "EU");
        assert_eq!(Continent::Africa.to_string(), "AF");
    }
}
