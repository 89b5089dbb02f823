//! Fixture: fallible extraction degrades structurally; test code may
//! panic; `unwrap_or`-family and custom `self.expect` methods are not
//! findings.

pub struct Parser {
    pos: usize,
}

impl Parser {
    fn expect(&mut self, _byte: u8) -> Result<(), String> {
        self.pos += 1;
        Ok(())
    }

    pub fn parse(&mut self) -> Result<(), String> {
        // A custom method named `expect` with a `self` receiver is never
        // std's panicking extractor.
        self.expect(b'{')?;
        Ok(())
    }
}

pub fn lookup(map: &std::collections::BTreeMap<u64, u64>, key: u64) -> u64 {
    map.get(&key).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u64> = [3].first().copied();
        assert_eq!(v.unwrap(), 3);
        let r: Result<u64, _> = "4".parse::<u64>();
        assert_eq!(r.expect("test invariant"), 4);
    }
}
