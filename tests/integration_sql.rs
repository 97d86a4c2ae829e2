//! Integration: the SQL engine end-to-end over the full storage stack.

use fame_dbms::fame_storage::Value;
use fame_dbms::{Database, DbmsConfig, QueryOutput};

fn db() -> Database {
    Database::open(DbmsConfig::in_memory()).unwrap()
}

#[test]
fn crud_round_trip() {
    let mut d = db();
    d.sql("CREATE TABLE readings (id U32, sensor TEXT, celsius F64)")
        .unwrap();
    let out = d
        .sql("INSERT INTO readings VALUES (1, 'kitchen', 21.5), (2, 'attic', 27.25), (3, 'cellar', 14.0)")
        .unwrap();
    assert_eq!(out, QueryOutput::Inserted(3));

    let out = d
        .sql("SELECT sensor FROM readings WHERE celsius > 20")
        .unwrap();
    assert_eq!(out.rows().unwrap().len(), 2);

    assert_eq!(
        d.sql("UPDATE readings SET celsius = 22.0 WHERE id = 1")
            .unwrap(),
        QueryOutput::Updated(1)
    );
    assert_eq!(
        d.sql("DELETE FROM readings WHERE sensor = 'attic'")
            .unwrap(),
        QueryOutput::Deleted(1)
    );
    assert_eq!(
        d.sql("SELECT COUNT(*) FROM readings").unwrap(),
        QueryOutput::Count(2)
    );
}

#[test]
fn sql_and_raw_api_coexist() {
    // The SQL catalog and the raw KV index live in different root slots;
    // both APIs must work side by side on one database.
    let mut d = db();
    d.put(b"raw-key", b"raw-value").unwrap();
    d.sql("CREATE TABLE t (id U32, v TEXT)").unwrap();
    d.sql("INSERT INTO t VALUES (1, 'sql-value')").unwrap();

    assert_eq!(d.get(b"raw-key").unwrap(), Some(b"raw-value".to_vec()));
    let out = d.sql("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(out.rows().unwrap()[0][0], Value::Str("sql-value".into()));
    // The raw index still has exactly one key.
    assert_eq!(d.len().unwrap(), 1);
}

#[test]
fn optimizer_selects_access_paths() {
    let mut d = db();
    d.sql("CREATE TABLE t (id U32, v U32)").unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> = (chunk * 100..(chunk + 1) * 100)
            .map(|i| format!("({i}, {})", i % 7))
            .collect();
        d.sql(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    }

    let out = d.sql("SELECT v FROM t WHERE id = 500").unwrap();
    assert_eq!(out.rows().unwrap().len(), 1);
    assert_eq!(d.last_access_path(), Some("point-lookup"));

    let out = d
        .sql("SELECT id FROM t WHERE id >= 100 AND id < 200")
        .unwrap();
    assert_eq!(out.rows().unwrap().len(), 100);
    assert_eq!(d.last_access_path(), Some("range-scan"));

    let out = d.sql("SELECT id FROM t WHERE v = 3").unwrap();
    assert!(!out.rows().unwrap().is_empty());
    assert_eq!(d.last_access_path(), Some("full-scan"));
}

fn v_column(out: &QueryOutput) -> Vec<Value> {
    out.rows().unwrap().iter().map(|r| r[0].clone()).collect()
}

#[test]
fn i64_key_point_lookup_with_a_u32_literal() {
    let mut d = db();
    d.sql("CREATE TABLE a (id I64, v U32)").unwrap();
    d.sql("INSERT INTO a VALUES (5, 1), (-3, 2), (7, 3)")
        .unwrap();
    let out = d.sql("SELECT v FROM a WHERE id = 5").unwrap();
    assert_eq!(v_column(&out), [Value::U32(1)]);
    assert_eq!(d.last_access_path(), Some("point-lookup"));
}

#[test]
fn i64_key_range_with_a_u32_literal() {
    let mut d = db();
    d.sql("CREATE TABLE a (id I64, v U32)").unwrap();
    d.sql("INSERT INTO a VALUES (5, 1), (-3, 2), (7, 3)")
        .unwrap();
    let out = d.sql("SELECT v FROM a WHERE id < 6").unwrap();
    assert_eq!(v_column(&out), [Value::U32(2), Value::U32(1)]);
    assert_eq!(d.last_access_path(), Some("range-scan"));
}

#[test]
fn u32_key_with_a_literal_below_its_domain() {
    let mut d = db();
    d.sql("CREATE TABLE b (id U32, v U32)").unwrap();
    d.sql("INSERT INTO b VALUES (5, 1), (3, 2), (7, 3)")
        .unwrap();
    // -1 has no U32 encoding, so it cannot bound the key range; the
    // predicate is still true of every row.
    let out = d.sql("SELECT v FROM b WHERE id > -1").unwrap();
    assert_eq!(
        v_column(&out),
        [Value::U32(2), Value::U32(1), Value::U32(3)]
    );
    assert_eq!(d.last_access_path(), Some("full-scan"));
}

#[test]
fn multi_table_workload() {
    let mut d = db();
    d.sql("CREATE TABLE users (id U32, name TEXT)").unwrap();
    d.sql("CREATE TABLE events (id U32, user_id U32, kind TEXT)")
        .unwrap();
    d.sql("INSERT INTO users VALUES (1, 'ada'), (2, 'grace')")
        .unwrap();
    d.sql("INSERT INTO events VALUES (10, 1, 'login'), (11, 1, 'logout'), (12, 2, 'login')")
        .unwrap();

    // Application-level join (the dialect has no JOIN — future work, as in
    // the prototype).
    let users = d.sql("SELECT id, name FROM users").unwrap();
    let mut logins = 0;
    for row in users.rows().unwrap() {
        let Value::U32(uid) = row[0] else { panic!() };
        let out = d
            .sql(&format!(
                "SELECT COUNT(*) FROM events WHERE user_id = {uid} AND kind = 'login'"
            ))
            .unwrap();
        if let QueryOutput::Count(n) = out {
            logins += n;
        }
    }
    assert_eq!(logins, 2);
}

#[test]
fn order_by_desc_with_limit() {
    let mut d = db();
    d.sql("CREATE TABLE scores (id U32, pts U32)").unwrap();
    d.sql("INSERT INTO scores VALUES (1, 50), (2, 90), (3, 70), (4, 90), (5, 10)")
        .unwrap();
    let out = d
        .sql("SELECT id, pts FROM scores ORDER BY pts DESC LIMIT 3")
        .unwrap();
    let rows = out.rows().unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][1], Value::U32(90));
    assert_eq!(rows[2][1], Value::U32(70));
}

#[test]
fn errors_do_not_poison_the_engine() {
    let mut d = db();
    d.sql("CREATE TABLE t (id U32, v TEXT)").unwrap();
    assert!(d.sql("SELECT * FROM missing").is_err());
    assert!(d.sql("INSERT INTO t VALUES ('wrong-type', 'x')").is_err());
    assert!(d.sql("NOT EVEN SQL").is_err());
    // The engine keeps working.
    d.sql("INSERT INTO t VALUES (1, 'fine')").unwrap();
    assert_eq!(
        d.sql("SELECT COUNT(*) FROM t").unwrap(),
        QueryOutput::Count(1)
    );
}

#[test]
fn string_keys_and_blobs() {
    let mut d = db();
    d.sql("CREATE TABLE cfg (name TEXT, blob BYTES)").unwrap();
    d.sql("INSERT INTO cfg VALUES ('firmware', x'DEADBEEF'), ('bootloader', x'00FF')")
        .unwrap();
    let out = d
        .sql("SELECT blob FROM cfg WHERE name = 'firmware'")
        .unwrap();
    assert_eq!(
        out.rows().unwrap()[0][0],
        Value::Bytes(vec![0xDE, 0xAD, 0xBE, 0xEF])
    );
}

#[test]
fn null_handling_three_valued() {
    let mut d = db();
    d.sql("CREATE TABLE t (id U32, v U32)").unwrap();
    d.sql("INSERT INTO t VALUES (1, 5), (2, NULL), (3, 10)")
        .unwrap();
    // NULL never matches a comparison, in either direction.
    assert_eq!(
        d.sql("SELECT COUNT(*) FROM t WHERE v > 0").unwrap(),
        QueryOutput::Count(2)
    );
    assert_eq!(
        d.sql("SELECT COUNT(*) FROM t WHERE NOT (v > 0)").unwrap(),
        QueryOutput::Count(0)
    );
}

#[test]
fn persistent_sql_over_file_device() {
    let path = std::env::temp_dir().join(format!("fame-sql-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut d = Database::open(DbmsConfig::on_file(&path)).unwrap();
        d.sql("CREATE TABLE t (id U32, v TEXT)").unwrap();
        d.sql("INSERT INTO t VALUES (1, 'persisted')").unwrap();
        d.sync().unwrap();
    }
    {
        let mut d = Database::open(DbmsConfig::on_file(&path)).unwrap();
        let out = d.sql("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(out.rows().unwrap()[0][0], Value::Str("persisted".into()));
    }
    let _ = std::fs::remove_file(&path);
}
