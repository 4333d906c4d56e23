//! Streaming-session differential: on every Table III app at O0 and O2,
//! K argsets fed one per poll through a `StreamInstance` must leave the
//! image and exit stream of one planned run and of one dense sweep fed all
//! K up front, hold the app's oracle bytes (every app's writes are
//! idempotent) and repeat one planned run's exit stream K times.

use revet_apps::all_apps;
use revet_oracle::judge::{Lanes, Stream};

#[path = "common/corpus.rs"]
mod corpus;
use corpus::{app_case, judged};

#[test]
fn chunked_feed_matches_one_shot_on_all_apps() {
    let lanes = Lanes {
        dense: true,
        stream: Some(Stream {
            copies: 3,
            chunk: 1,
        }),
        ..Lanes::plan(&[0, 2])
    };
    for app in all_apps() {
        judged(app.name, &app_case(&app, 2, 8, 0x57AE), &lanes);
    }
}
