(* The serve workloads: histotestd as its own process, driven by
   closed-loop clients over stdio pipes (ingest) or loopback TCP
   (fanout), with every response checked against the benchmark's own
   tally; and, in traced runs, the same request bytes replayed in-process
   through Netio.Reader -> Service.Batch.push_sub -> Service.Batch.execute
   -> write, then through Service.observe / Suffstat.observe_sub /
   Service.merged / Suffstat.statistic on a fresh Service. *)

open Pb_util

type transport = Stdio | Tcp

type spec = {
  name : string;
  transport : transport;
  n : int;
  family : string;  (** the hypothesis the daemon is configured with *)
  law : string;  (** the law the observed values are drawn from *)
  eps : float;
  shards : int;
  values_per_line : int;
  observes_per_round : int;
      (** ingest: observes between two verdicts on the one stream;
          fanout: collector responses between two dashboard verdicts *)
  window : int;  (** outstanding requests per collector connection *)
  chunk_rounds : int;  (** rounds drawn and rendered at a time *)
  noncanonical_per_mille : int;
      (** lines sent in a valid but non-canonical JSON form *)
  expect : Verdict.t;
  trace_rounds : int;  (** rounds replayed in-process by a traced run *)
}

let ingest =
  {
    name = "ingest";
    transport = Stdio;
    n = 1 lsl 16;
    family = "staircase:4";
    law = "staircase:4";
    eps = 0.25;
    shards = 8;
    values_per_line = 64;
    observes_per_round = 10_000;
    window = 256;
    chunk_rounds = 5;
    noncanonical_per_mille = 30;
    expect = Verdict.Accept;
    trace_rounds = 20;
  }

let fanout =
  {
    name = "fanout";
    transport = Tcp;
    n = 4096;
    family = "uniform";
    law = "comb:8";
    eps = 0.2;
    shards = 2048;
    values_per_line = 16;
    observes_per_round = 2000;
    window = 64;
    chunk_rounds = 10;
    noncanonical_per_mille = 0;
    expect = Verdict.Reject;
    trace_rounds = 10;
  }

let batch = 64

(* The hypothesis (and the staircase's levels) is the same on every run;
   --seed drives the observed data. *)
let hypothesis_seed = 1

let config_line spec =
  Printf.sprintf {|{"cmd":"config","n":%d,"family":"%s","eps":%g,"seed":%d}|}
    spec.n spec.family spec.eps hypothesis_seed
  ^ "\n"

let pmf_of spec s =
  match Service.family_of_spec ~n:spec.n ~seed:hypothesis_seed s with
  | Ok p -> p
  | Error msg -> failwith msg

(* --- request generation -------------------------------------------- *)

(* Observe requests: a shard and [values_per_line] iid draws from the law
   (Alias on a Randkit.Rng), a few per mille of them in a valid but
   non-canonical JSON form, rendered from a table of decimal forms.

   Requests are drawn and rendered in chunks of whole rounds while nothing
   is in flight and no round is timed; a chunk is then sent as it stands.
   Drawing and rendering a 64-value line costs the client about as much
   CPU as the daemon spends answering it, so a client that drew while it
   sent kept both cores of a 2-core host busy, and the figures followed
   whatever else the host ran.  Sending a rendered chunk costs the client
   about a tenth of that.  Values are never reused: the verdicts need the
   whole stream to be iid draws from the law. *)
type gen = {
  spec : spec;
  alias : Alias.t;
  rng : Randkit.Rng.t;
  xs : int array;  (** the values of the line last drawn *)
  mutable shard : int;
  mutable form : int;  (** 0 canonical, 1 spaced, 2 fields reordered *)
  heads : string array array;  (** [heads.(form).(shard)]: the line up to its values *)
  dec : string;  (** the decimal form of x at [5 * x], [dlen.(x)] long *)
  dlen : int array;
}

let shard_names spec = Array.init spec.shards (Printf.sprintf "s%d")

let gen_create spec rng =
  if spec.n > 100_000 then invalid_arg "gen_create: values of more than 5 digits";
  let names = shard_names spec in
  let dec = Bytes.make (5 * spec.n) ' ' in
  let dlen =
    Array.init spec.n (fun x ->
        let s = string_of_int x in
        Bytes.blit_string s 0 dec (5 * x) (String.length s);
        String.length s)
  in
  {
    spec;
    alias = Alias.of_pmf (pmf_of spec spec.law);
    rng;
    xs = Array.make spec.values_per_line 0;
    shard = 0;
    form = 0;
    heads =
      [|
        Array.map (Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[|}) names;
        Array.map (Printf.sprintf {|{"cmd": "observe", "shard": "%s", "xs": [|}) names;
        Array.map (Printf.sprintf {|{"shard":"%s","cmd":"observe","xs":[|}) names;
      |];
    dec = Bytes.unsafe_to_string dec;
    dlen;
  }

(* The generators of a seed's two request streams: set-up, then rounds. *)
let streams ~seed =
  let rng = Randkit.Rng.create ~seed in
  let setup = Randkit.Rng.split rng in
  (setup, Randkit.Rng.split rng)

(* Draw the next line, to [shard] or to a random shard. *)
let gen_next g ~shard =
  g.shard <-
    (match shard with Some s -> s | None -> Randkit.Rng.int g.rng g.spec.shards);
  Alias.draw_many_into g.alias g.rng ~out:g.xs (Array.length g.xs);
  g.form <-
    (if Randkit.Rng.int g.rng 1000 < g.spec.noncanonical_per_mille then
       1 + Randkit.Rng.int g.rng 2
     else 0)

let max_line spec =
  64 + String.length (string_of_int spec.shards) + (7 * spec.values_per_line)

(* Write the line last drawn into [dst] at [pos]; returns its length. *)
let render g dst pos =
  if pos + max_line g.spec > Bytes.length dst then invalid_arg "render: no room";
  let head = g.heads.(g.form).(g.shard) in
  Bytes.blit_string head 0 dst pos (String.length head);
  let p = ref (pos + String.length head) in
  let spaced = g.form = 1 in
  for i = 0 to Array.length g.xs - 1 do
    if i > 0 then begin
      Bytes.unsafe_set dst !p ',';
      incr p;
      if spaced then begin
        Bytes.unsafe_set dst !p ' ';
        incr p
      end
    end;
    (* x < n by Alias's contract, so the table reads are in bounds *)
    let x = Array.unsafe_get g.xs i in
    let l = Array.unsafe_get g.dlen x in
    for j = 0 to l - 1 do
      Bytes.unsafe_set dst (!p + j) (String.unsafe_get g.dec ((5 * x) + j))
    done;
    p := !p + l
  done;
  Bytes.blit_string "]}\n" 0 dst !p 3;
  !p + 3 - pos

(* Rendered requests: line i is [offs.(i), offs.(i + 1)) of [bytes], to
   shard [shard.(i)]. *)
type chunk = { bytes : Bytes.t; offs : int array; shard : int array }

let chunk_create spec lines =
  {
    bytes = Bytes.create (lines * max_line spec);
    offs = Array.make (lines + 1) 0;
    shard = Array.make lines 0;
  }

let chunk_lines ch = Array.length ch.shard

(* Draw and render every line of [ch], line i to [shard i] (or to a random
   shard), adding each value to [counts]. *)
let fill g ch ~shard counts =
  for i = 0 to chunk_lines ch - 1 do
    gen_next g ~shard:(Option.map (fun f -> f i) shard);
    ch.shard.(i) <- g.shard;
    Array.iter (fun x -> counts.(x) <- counts.(x) + 1) g.xs;
    ch.offs.(i + 1) <- ch.offs.(i) + render g ch.bytes ch.offs.(i)
  done

(* The set-up requests, one observe per shard in shard order, rendered
   once per run: every set-up sends the same bytes. *)
type setup = { lines : chunk; counts : int array  (** over all the lines *) }

let make_setup spec ~seed =
  let g = gen_create spec (fst (streams ~seed)) in
  let lines = chunk_create spec spec.shards in
  let counts = Array.make spec.n 0 in
  fill g lines ~shard:(Some Fun.id) counts;
  { lines; counts }

let verdict_line = "{\"cmd\":\"verdict\"}\n"

(* --- client connections -------------------------------------------- *)

let k_config = -3
let k_verdict = -2

type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  mutable ob : Bytes.t;
  mutable ob_lo : int;
  mutable ob_hi : int;
  ib : Bytes.t;
  mutable ib_lo : int;
  mutable ib_hi : int;
  (* outstanding requests, FIFO: kind (shard index, k_verdict or
     k_config), send time, and a per-kind datum *)
  kind : int array;
  t0 : int array;
  aux : int array;
  mutable sent : int;
  mutable recvd : int;
}

let ring = 4096

let conn_create rfd wfd =
  Unix.set_nonblock wfd;
  {
    rfd;
    wfd;
    ob = Bytes.create 65536;
    ob_lo = 0;
    ob_hi = 0;
    ib = Bytes.create (1 lsl 20);
    ib_lo = 0;
    ib_hi = 0;
    kind = Array.make ring 0;
    t0 = Array.make ring 0;
    aux = Array.make ring 0;
    sent = 0;
    recvd = 0;
  }

let outstanding c = c.sent - c.recvd

(* Make room for [len] more bytes at the end of the output buffer. *)
let reserve c len =
  if c.ob_hi + len > Bytes.length c.ob then begin
    let live = c.ob_hi - c.ob_lo in
    let nb =
      if live + len > Bytes.length c.ob then
        Bytes.create (2 * (live + len))
      else c.ob
    in
    Bytes.blit c.ob c.ob_lo nb 0 live;
    c.ob <- nb;
    c.ob_lo <- 0;
    c.ob_hi <- live
  end

(* Record the request just queued as outstanding from now. *)
let commit c kind aux =
  let slot = c.sent land (ring - 1) in
  c.kind.(slot) <- kind;
  c.aux.(slot) <- aux;
  c.t0.(slot) <- now_ns ();
  c.sent <- c.sent + 1

let enqueue c src pos len kind aux =
  reserve c len;
  Bytes.blit src pos c.ob c.ob_hi len;
  c.ob_hi <- c.ob_hi + len;
  commit c kind aux

let flush c =
  if c.ob_hi > c.ob_lo then
    match Unix.single_write c.wfd c.ob c.ob_lo (c.ob_hi - c.ob_lo) with
    | w ->
        c.ob_lo <- c.ob_lo + w;
        if c.ob_lo = c.ob_hi then begin
          c.ob_lo <- 0;
          c.ob_hi <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()

let rec find_nl b i hi =
  if i >= hi then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else find_nl b (i + 1) hi

(* Read what is available and hand each complete response line to
   [on_line c slot pos len] (slot = its request's ring index). *)
let read_responses c on_line =
  if c.ib_lo > 0 && c.ib_hi = Bytes.length c.ib then begin
    Bytes.blit c.ib c.ib_lo c.ib 0 (c.ib_hi - c.ib_lo);
    c.ib_hi <- c.ib_hi - c.ib_lo;
    c.ib_lo <- 0
  end;
  if c.ib_hi = Bytes.length c.ib then failwith "response line too long";
  match Unix.read c.rfd c.ib c.ib_hi (Bytes.length c.ib - c.ib_hi) with
  | 0 -> failwith "histotestd closed its output"
  | r ->
      c.ib_hi <- c.ib_hi + r;
      let continue = ref true in
      while !continue do
        match find_nl c.ib c.ib_lo c.ib_hi with
        | nl when nl >= 0 ->
            if c.recvd >= c.sent then failwith "unsolicited response";
            let slot = c.recvd land (ring - 1) in
            c.recvd <- c.recvd + 1;
            on_line c slot c.ib_lo (nl - c.ib_lo);
            c.ib_lo <- nl + 1
        | _ -> continue := false
      done;
      if c.ib_lo = c.ib_hi then begin
        c.ib_lo <- 0;
        c.ib_hi <- 0
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

(* One select round over the connections. *)
let pump conns on_line =
  let rfds = List.map (fun c -> c.rfd) conns in
  let wfds =
    List.filter_map (fun c -> if c.ob_hi > c.ob_lo then Some c.wfd else None) conns
  in
  match Unix.select rfds wfds [] 10.0 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], [], [] -> failwith "histotestd did not answer within 10 s"
  | readable, writable, _ ->
      List.iter (fun c -> if List.memq c.wfd writable then flush c) conns;
      List.iter
        (fun c -> if List.memq c.rfd readable then read_responses c on_line)
        conns

(* --- the daemon ------------------------------------------------------- *)

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

(* Built by perfbench/run.sh from the same tree. *)
let daemon_exe = ".bench_build/default/bin/histotestd.exe"

let spawn args ~stdin ~stdout ~stderr =
  let pid =
    Unix.create_process daemon_exe
      (Array.of_list (daemon_exe :: args))
      stdin stdout stderr
  in
  live_pids := pid :: !live_pids;
  pid

let reap pid =
  ignore (Unix.waitpid [] pid);
  live_pids := List.filter (fun p -> p <> pid) !live_pids

(* Read the daemon's "listening on HOST:PORT" line from its stderr. *)
let read_port fd =
  let buf = Buffer.create 128 in
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> failwith "histotestd did not report its port"
    | _ -> (
        match Unix.read fd b 0 256 with
        | 0 -> failwith "histotestd exited before listening"
        | r -> (
            Buffer.add_subbytes buf b 0 r;
            let s = Buffer.contents buf in
            match String.index_opt s '\n' with
            | None -> go ()
            | Some nl ->
                let line = String.sub s 0 nl in
                let colon = String.rindex line ':' in
                int_of_string
                  (String.sub line (colon + 1) (String.length line - colon - 1))))
  in
  go ()

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* --- one daemon run: set-up, measured rounds, final check ------------ *)

type daemon_run = {
  spec : spec;
  pid : int;
  conns : conn list;
  col : conn;  (** collector: config and observes *)
  dash : conn;  (** dashboard: verdicts (the collector itself on stdio) *)
  extra_fds : Unix.file_descr list;
  config : Service.config;  (** the daemon's configuration, built in-process *)
  setup : setup;
  counts : int array;  (** per-element counts of every value sent *)
  tally : int array;  (** per-shard totals, from the responses' order *)
  mutable tally_total : int;
  mutable sent_values : int;
  mutable last_verdict_total : int;
  mutable measuring : bool;
  lat_all : Ivec.t;
  lat_obs : Ivec.t;
  lat_verdict : Ivec.t;
  round_ends : Ivec.t;  (** arrival times of the measured verdict responses *)
  round_starts : Ivec.t;  (** when each of those rounds began *)
  mutable round_start : int;
  round_steal : Ivec.t;  (** host steal ticks during each of those rounds *)
  mutable steal_start : int;
  all_marks : Ivec.t;  (** lengths of [lat_all] and [lat_obs] at each round end *)
  obs_marks : Ivec.t;
  mutable round_recvd : int;  (** collector responses in the current round *)
  mutable verdicts_due : int;
  mutable final_z : float option;
  prefixes : string array;  (** expected observe responses up to the total *)
}

(* Does the response at [pos, pos + len) read exactly
   {"ok":true,"cmd":"observe","shard":S,"added":A,"shard_total":T}?
   The part up to T is fixed per shard. *)
let observe_ok_prefixes spec names =
  Array.map
    (fun shard ->
      Printf.sprintf {|{"ok":true,"cmd":"observe","shard":"%s","added":%d,"shard_total":|}
        shard spec.values_per_line)
    names

let matches_observe conn pos len prefix total =
  let pl = String.length prefix in
  let ok = ref (len > pl + 1 && Bytes.get conn.ib (pos + len - 1) = '}') in
  let i = ref 0 in
  while !ok && !i < pl do
    if Bytes.unsafe_get conn.ib (pos + !i) <> String.unsafe_get prefix !i then
      ok := false;
    incr i
  done;
  let v = ref 0 in
  for j = pos + pl to pos + len - 2 do
    match Bytes.get conn.ib j with
    | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - 48)
    | _ -> ok := false
  done;
  !ok && !v = total

let parse_line conn pos len =
  let line = Bytes.sub_string conn.ib pos len in
  match Jsonl.parse line with
  | Ok j -> (line, j)
  | Error msg -> failwith ("unparsable response: " ^ msg ^ ": " ^ line)

let field j k = Jsonl.member k j

let int_field j k =
  match Option.bind (field j k) Jsonl.to_int with
  | Some v -> v
  | None -> -1

let on_line s conn slot pos len =
  let kind = conn.kind.(slot) in
  let lat = now_ns () - conn.t0.(slot) in
  if kind >= 0 then begin
    let total = s.tally.(kind) + s.spec.values_per_line in
    if matches_observe conn pos len s.prefixes.(kind) total then begin
      s.tally.(kind) <- total;
      s.tally_total <- s.tally_total + s.spec.values_per_line
    end
    else begin
      (* An error response is a failed operation: the daemon added
         nothing, so the tally stays.  Any other answer is wrong. *)
      let line, j = parse_line conn pos len in
      if s.measuring && field j "ok" = Some (Jsonl.Bool false) then incr failed_ops
      else check false "observe response %s, expected shard_total %d" line total
    end;
    if s.measuring then begin
      Ivec.push s.lat_all lat;
      Ivec.push s.lat_obs lat
    end;
    if conn == s.col && conn != s.dash then begin
      s.round_recvd <- s.round_recvd + 1;
      if s.round_recvd = s.spec.observes_per_round then begin
        s.round_recvd <- 0;
        if s.measuring then s.verdicts_due <- s.verdicts_due + 1
      end
    end
  end
  else if kind = k_config then begin
    let line, j = parse_line conn pos len in
    check
      (field j "ok" = Some (Jsonl.Bool true)
      && field j "cmd" = Some (Jsonl.Str "config"))
      "config response %s" line
  end
  else begin
    let line, j = parse_line conn pos len in
    let total = int_field j "total" in
    let lower = conn.aux.(slot) in
    let upper = s.sent_values in
    let ok = field j "ok" = Some (Jsonl.Bool true) in
    if not ok then begin
      if s.measuring then incr failed_ops
      else check false "final verdict response %s" line
    end
    else begin
      check
        (total >= s.last_verdict_total && total >= lower && total <= upper)
        "verdict total %d outside [%d, %d] or below the previous %d" total lower
        upper s.last_verdict_total;
      (* on one stream every earlier observe has been answered, so the
         verdict's total is exactly the tally *)
      if conn == s.col then
        check (total = s.tally_total) "verdict total %d, tally %d" total s.tally_total;
      check (int_field j "shards" = s.spec.shards) "verdict shards in %s" line;
      s.last_verdict_total <- total
    end;
    if s.measuring then begin
      Ivec.push s.lat_all lat;
      Ivec.push s.lat_verdict lat;
      let t = now_ns () in
      Ivec.push s.round_ends t;
      Ivec.push s.round_starts s.round_start;
      s.round_start <- t;
      let st = steal_ticks () in
      Ivec.push s.round_steal (st - s.steal_start);
      s.steal_start <- st;
      Ivec.push s.all_marks (Ivec.length s.lat_all);
      Ivec.push s.obs_marks (Ivec.length s.lat_obs)
    end
    else if ok then begin
      (* The final verdict: everything sent has been answered.  Compare
         with one Suffstat, on the partition Service.configure builds,
         holding the whole stream's counts.  An observe that failed left
         its values in [counts], so the totals then differ. *)
      let local = Suffstat.create ~part:s.config.Service.part in
      Suffstat.observe_counts local s.counts;
      let st = Suffstat.statistic local ~dstar:s.config.Service.dstar ~eps:s.spec.eps in
      let threshold =
        Chi2stat.accept_threshold ~m:st.Chi2stat.m ~eps:s.spec.eps
      in
      let verdict =
        if st.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject
      in
      let z = Option.bind (field j "z") Jsonl.to_float in
      s.final_z <- z;
      check (total = s.tally_total) "final verdict total %d, tally %d" total
        s.tally_total;
      check (total = Suffstat.total local) "final total vs in-process state";
      check
        (match z with Some z -> Float.equal z st.Chi2stat.z | None -> false)
        "final verdict z in %s differs from the in-process statistic %.17g"
        line st.Chi2stat.z;
      check
        (field j "verdict" = Some (Jsonl.Str (Verdict.to_string verdict)))
        "final verdict %s, in-process %s" line (Verdict.to_string verdict);
      check (Verdict.equal verdict s.spec.expect) "final verdict is %s, expected %s"
        (Verdict.to_string verdict)
        (Verdict.to_string s.spec.expect)
    end
  end

let send_line s ch i =
  let lo = ch.offs.(i) in
  enqueue s.col ch.bytes lo (ch.offs.(i + 1) - lo) ch.shard.(i) 0;
  s.sent_values <- s.sent_values + s.spec.values_per_line

let send_verdict s c =
  enqueue c (Bytes.of_string verdict_line) 0 (String.length verdict_line) k_verdict
    s.tally_total

let wait_all s =
  while List.exists (fun c -> outstanding c > 0 || c.ob_hi > c.ob_lo) s.conns do
    pump s.conns (on_line s)
  done

(* Spawn the daemon, configure it and create every shard.  This is the
   interval [setup_s] times. *)
let start spec ~config ~setup =
  let pid, col, dash, conns, extra =
    match spec.transport with
    | Stdio ->
        let in_r, in_w = Unix.pipe ~cloexec:true () in
        let out_r, out_w = Unix.pipe ~cloexec:true () in
        let pid =
          spawn [ "--jobs"; "1"; "--batch"; string_of_int batch ] ~stdin:in_r
            ~stdout:out_w ~stderr:Unix.stderr
        in
        Unix.close in_r;
        Unix.close out_w;
        let c = conn_create out_r in_w in
        (pid, c, c, [ c ], [])
    | Tcp ->
        let in_r, in_w = Unix.pipe ~cloexec:true () in
        let err_r, err_w = Unix.pipe ~cloexec:true () in
        let pid =
          spawn
            [ "--jobs"; "1"; "--batch"; string_of_int batch; "--listen"; "127.0.0.1:0" ]
            ~stdin:in_r ~stdout:Unix.stderr ~stderr:err_w
        in
        Unix.close in_r;
        Unix.close err_w;
        let port = read_port err_r in
        let cfd = connect port and dfd = connect port in
        let col = conn_create cfd cfd and dash = conn_create dfd dfd in
        (pid, col, dash, [ col; dash ], [ in_w; err_r ])
  in
  let s =
    {
      spec;
      pid;
      conns;
      col;
      dash;
      extra_fds = extra;
      config;
      setup;
      counts = Array.copy setup.counts;
      tally = Array.make spec.shards 0;
      tally_total = 0;
      sent_values = 0;
      last_verdict_total = 0;
      measuring = false;
      lat_all = Ivec.create ();
      lat_obs = Ivec.create ();
      lat_verdict = Ivec.create ();
      round_ends = Ivec.create ();
      round_starts = Ivec.create ();
      round_start = 0;
      round_steal = Ivec.create ();
      steal_start = 0;
      all_marks = Ivec.create ();
      obs_marks = Ivec.create ();
      round_recvd = 0;
      verdicts_due = 0;
      final_z = None;
      prefixes = observe_ok_prefixes spec (shard_names spec);
    }
  in
  let cfg = config_line spec in
  enqueue col (Bytes.of_string cfg) 0 (String.length cfg) k_config 0;
  for shard = 0 to spec.shards - 1 do
    while outstanding col >= spec.window do
      pump conns (on_line s)
    done;
    send_line s setup.lines shard
  done;
  wait_all s;
  s

(* stdio: closing the daemon's input ends it; a socket daemon serves
   until signalled. *)
let stop s =
  List.iter
    (fun c ->
      Unix.close c.rfd;
      if c.wfd != c.rfd then Unix.close c.wfd)
    s.conns;
  List.iter Unix.close s.extra_fds;
  (match s.spec.transport with
  | Stdio -> ()
  | Tcp -> Unix.kill s.pid Sys.sigterm);
  reap s.pid

(* Rounds until [seconds] have passed, ended on a chunk boundary.
   ingest: [observes_per_round] observes then one verdict, all on one
   stdio stream.  fanout: the collector streams observes; the dashboard
   sends one verdict each time the collector has received
   [observes_per_round] more responses.  Between two chunks everything in
   flight is answered, the next chunk is drawn and [between ()] runs; no
   round spans that pause.  [wall] and [client_cpu] leave the pauses
   out. *)
type figures = {
  rounds : int;
  wall : float;
  client_cpu : float;
  steal_s : float;
  rate : float;
  p50 : float;
  p99 : float;
  verdict_p50 : float;
}

let measure s ~seed ~seconds ~between =
  let spec = s.spec in
  let g = gen_create spec (snd (streams ~seed)) in
  let ch = chunk_create spec (spec.chunk_rounds * spec.observes_per_round) in
  fill g ch ~shard:None s.counts;
  s.measuring <- true;
  s.round_recvd <- 0;
  let busy () =
    List.exists (fun c -> outstanding c > 0 || c.ob_hi > c.ob_lo) s.conns
    || s.verdicts_due > 0
  in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let cpu0 = self_cpu_s () and steal0 = steal_ticks () in
  let pause_ns = ref 0 and pause_cpu = ref 0. in
  s.round_start <- t_start;
  s.steal_start <- steal0;
  let rounds = ref 0 and in_round = ref 0 and next = ref 0 in
  let stopping = ref false and refill = ref false in
  let end_round () =
    in_round := 0;
    incr rounds;
    if !next = chunk_lines ch then
      if now_ns () >= deadline then stopping := true else refill := true
  in
  let sending () = not (!stopping || !refill) in
  while (not !stopping) || busy () do
    if !refill && not (busy ()) then begin
      let t0 = now_ns () and c0 = self_cpu_s () in
      fill g ch ~shard:None s.counts;
      next := 0;
      refill := false;
      between ();
      pause_cpu := !pause_cpu +. (self_cpu_s () -. c0);
      s.round_start <- now_ns ();
      s.steal_start <- steal_ticks ();
      pause_ns := !pause_ns + (s.round_start - t0)
    end;
    (match spec.transport with
    | Stdio ->
        while sending () && outstanding s.col < spec.window do
          if !in_round < spec.observes_per_round then begin
            send_line s ch !next;
            incr next;
            incr in_round
          end
          else begin
            send_verdict s s.col;
            end_round ()
          end
        done
    | Tcp ->
        while sending () && outstanding s.col < spec.window do
          send_line s ch !next;
          incr next;
          incr in_round;
          if !in_round = spec.observes_per_round then end_round ()
        done;
        if s.verdicts_due > 0 && outstanding s.dash = 0 then begin
          s.verdicts_due <- s.verdicts_due - 1;
          send_verdict s s.dash
        end);
    List.iter flush s.conns;
    if busy () then pump s.conns (on_line s)
  done;
  let t_end = now_ns () in
  let client_cpu = self_cpu_s () -. cpu0 -. !pause_cpu in
  let steal = steal_ticks () - steal0 in
  s.measuring <- false;
  send_verdict s s.dash;
  wait_all s;
  check (Option.is_some s.final_z) "no final verdict";
  check (Ivec.length s.round_ends = !rounds) "%d rounds sent, %d verdicts answered"
    !rounds (Ivec.length s.round_ends);
  (* Per-round figures, reported as their worse quartile.  A round runs
     from its start (the previous round's verdict response, or the end of
     a pause) to its own verdict response.  Its rate is its requests over
     the part of that time the host did not steal; its latencies are those
     answered in it, scaled by that part's share. *)
  let n = Ivec.length s.round_ends in
  let wall i = secs_of_ns (Ivec.get s.round_ends i - Ivec.get s.round_starts i) in
  let own i = unstolen ~wall:(wall i) ~steal:(Ivec.get s.round_steal i) in
  let over ~higher_is_better f =
    worse_quartile ~higher_is_better (Array.init n f)
  in
  let prev marks i = if i = 0 then 0 else Ivec.get marks (i - 1) in
  let slice marks v i = ms_slice ~lo:(prev marks i) ~hi:(Ivec.get marks i) v in
  let latency f = over ~higher_is_better:false (fun i -> f i *. own i /. wall i) in
  let per_round = float_of_int (spec.observes_per_round + 1) in
  {
    rounds = !rounds;
    wall = secs_of_ns (t_end - t_start - !pause_ns);
    client_cpu;
    steal_s = float_of_int steal /. 100.;
    rate = over ~higher_is_better:true (fun i -> per_round /. own i);
    p50 = latency (fun i -> Numkit.Summary.median (slice s.all_marks s.lat_all i));
    p99 = latency (fun i -> Numkit.Summary.quantile (slice s.obs_marks s.lat_obs i) 0.99);
    verdict_p50 = latency (fun i -> float_of_int (Ivec.get s.lat_verdict i) *. 1e-6);
  }

(* --- in-process replay (traced runs) ----------------------------------- *)

(* The request bytes of the final set-up and the first [trace_rounds]
   rounds, in the order the daemon reads them on one stream (on fanout the
   dashboard's verdict follows the round's last observe), written to a
   file so Netio.Reader reads them from a descriptor. *)
let iter_requests spec ~seed f =
  let setup_rng, round_rng = streams ~seed in
  let line = Bytes.create (max_line spec) in
  let observe g ~shard =
    gen_next g ~shard;
    f (`Observe (g, line, render g line 0))
  in
  f (`Config (config_line spec));
  let g = gen_create spec setup_rng in
  for shard = 0 to spec.shards - 1 do
    observe g ~shard:(Some shard)
  done;
  let g = gen_create spec round_rng in
  for _ = 1 to spec.trace_rounds do
    for _ = 1 to spec.observes_per_round do
      observe g ~shard:None
    done;
    f `Verdict
  done;
  f `Verdict

let write_corpus spec ~seed path =
  let oc = open_out_bin path in
  let count = ref 0 in
  iter_requests spec ~seed (fun r ->
      incr count;
      match r with
      | `Config line -> output_string oc line
      | `Observe (_, line, len) -> output oc line 0 len
      | `Verdict -> output_string oc verdict_line);
  close_out oc;
  !count

type replay = {
  wall_s : float;
  trace : Pb_trace.t;
  reader_bytes : int;
  write_bytes : int;
  stats : Service.serve_stats;
  gc_alloc_mb : float;
  gc_major : int;
}

(* The daemon's transport path, in-process: refill the reader, frame the
   buffered lines, push them into the batch executor, execute each full
   (or final partial) batch and write its responses.  Spans wrap each
   layer call when [traced]. *)
let replay_pass ~traced ~corpus ~out_path =
  let tr = Pb_trace.create () in
  let op name id = if traced then Pb_trace.open_ tr name ~id else -1 in
  let cl k = if k >= 0 then Pb_trace.close tr k in
  let svc = Service.create () in
  let ex = Service.Batch.create ~pool:Parkit.Pool.sequential ~batch svc in
  let fd = Unix.openfile corpus [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let ofd =
    Unix.openfile out_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let r = Netio.Reader.create fd in
  let out = Buffer.create 65536 in
  let ob = ref (Bytes.create 65536) in
  let pos = Ivec.create () and len = Ivec.create () in
  let reader_bytes = ref 0 and write_bytes = ref 0 in
  let requests = ref 0 in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let root = op "replay" 0 in
  let eof = ref false in
  while not !eof do
    let k = op "netio.reader" !requests in
    (match Netio.Reader.refill r with
    | `Data d -> reader_bytes := !reader_bytes + d
    | `Eof | `Would_block -> ());
    pos.Ivec.n <- 0;
    len.Ivec.n <- 0;
    let framing = ref true in
    while !framing do
      match Netio.Reader.next_span r with
      | `Span (p, l) ->
          Ivec.push pos p;
          Ivec.push len l
      | `Pending -> framing := false
      | `Eof ->
          framing := false;
          eof := true
      | `Too_long -> failwith "replay: over-long line"
    done;
    cl k;
    let raw = Bytes.unsafe_to_string (Netio.Reader.contents r) in
    let i = ref 0 in
    while !i < Ivec.length pos do
      let k = op "batch.push" !requests in
      while !i < Ivec.length pos && Service.Batch.want_more ex do
        Service.Batch.push_sub ex raw ~pos:(Ivec.get pos !i) ~len:(Ivec.get len !i);
        incr i
      done;
      cl k;
      let k = op "batch.execute" !requests in
      requests := !requests + Service.Batch.count ex;
      Buffer.clear out;
      ignore (Service.Batch.execute ex ~out : bool);
      cl k;
      let k = op "write" !requests in
      let l = Buffer.length out in
      if Bytes.length !ob < l then ob := Bytes.create (2 * l);
      Buffer.blit out 0 !ob 0 l;
      let w = ref 0 in
      while !w < l do
        w := !w + Unix.write ofd !ob !w (l - !w)
      done;
      write_bytes := !write_bytes + l;
      cl k
    done
  done;
  cl root;
  let wall = secs_of_ns (now_ns () - t0) in
  let gc1 = Gc.quick_stat () in
  Unix.close fd;
  Unix.close ofd;
  {
    wall_s = wall;
    trace = tr;
    reader_bytes = !reader_bytes;
    write_bytes = !write_bytes;
    stats = Service.Batch.stats ex;
    gc_alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The engine calls behind the same requests, on a fresh Service:
   Service.configure; per observe, Service.observe and (on a shadow state
   of the shard) Suffstat.observe_sub — their difference is the shard
   registry; per verdict, Service.merged then Suffstat.statistic. *)
let registry_pass spec ~seed =
  let tr = Pb_trace.create () in
  let names = shard_names spec in
  let svc = Service.create () in
  let shadow = ref [||] in
  let config = ref None in
  let values = ref 0 and verdicts = ref 0 and merged_alloc = ref 0. in
  let id = ref 0 in
  iter_requests spec ~seed (fun r ->
      incr id;
      match r with
      | `Config _ ->
          let c =
            Pb_trace.span tr "service.configure" ~id:!id (fun () ->
                Service.configure svc ~n:spec.n ~family:spec.family ~eps:spec.eps
                  ~cells:None ~seed:hypothesis_seed)
          in
          let c = match c with Ok c -> c | Error msg -> failwith msg in
          config := Some c;
          shadow :=
            Array.init spec.shards (fun _ -> Suffstat.create ~part:c.Service.part)
      | `Observe (g, _, _) ->
          let xs = g.xs in
          (match
             Pb_trace.span tr "service.observe" ~id:!id (fun () ->
                 Service.observe svc ~shard:names.(g.shard) xs)
           with
          | Ok _ -> ()
          | Error msg -> failwith msg);
          let st = !shadow.(g.shard) in
          Pb_trace.span tr "suffstat.observe" ~id:!id (fun () ->
              Suffstat.observe_sub st xs ~pos:0 ~len:(Array.length xs));
          values := !values + Array.length xs
      | `Verdict -> (
          incr verdicts;
          let a0 = Gc.allocated_bytes () in
          let merged =
            Pb_trace.span tr "service.merged" ~id:!id (fun () -> Service.merged svc)
          in
          merged_alloc := !merged_alloc +. (Gc.allocated_bytes () -. a0);
          match (merged, !config) with
          | Some st, Some c ->
              ignore
                (Pb_trace.span tr "suffstat.statistic" ~id:!id (fun () ->
                     Suffstat.statistic st ~dstar:c.Service.dstar ~eps:spec.eps)
                  : Chi2stat.t)
          | _ -> failwith "verdict before any observation"));
  (tr, !values, !verdicts, !merged_alloc /. 1e6, List.length (Service.shards svc))

(* --- entry points ------------------------------------------------------ *)

(* Set-up runs [setups] times before the measured rounds, each time on a
   fresh daemon, and the last daemon is the one measured.  It runs again,
   on daemons of its own, for at least [pause_setup_s] in every pause
   between two chunks, so the set-up times sample the whole run rather
   than its first seconds. *)
let setups = 4
let pause_setup_s = 0.1

(* The configuration the daemon builds from [config_line], built here by
   the same function: the hypothesis and the partition the final verdict
   is checked against. *)
let configure spec =
  match
    Service.configure (Service.create ()) ~n:spec.n ~family:spec.family
      ~eps:spec.eps ~cells:None ~seed:hypothesis_seed
  with
  | Ok c -> c
  | Error msg -> failwith msg

let check_law spec dstar =
  let law = pmf_of spec spec.law in
  let tv = ref 0. in
  for i = 0 to spec.n - 1 do
    tv := !tv +. Float.abs (Pmf.get dstar i -. Pmf.get law i)
  done;
  let tv = !tv /. 2. in
  match spec.expect with
  | Verdict.Accept -> check (tv = 0.) "%s: law differs from the hypothesis" spec.name
  | Verdict.Reject ->
      check (tv >= spec.eps) "%s: law only %.4f from the hypothesis (eps %g)"
        spec.name tv spec.eps

let run spec ~seed ~seconds ~traced =
  let config = configure spec in
  check_law spec config.Service.dstar;
  let setup = make_setup spec ~seed in
  let acc = setup_log () in
  let make () = start spec ~config ~setup in
  let s = repeated_setup acc ~count:setups ~seconds:0. make stop in
  let between () =
    let t0 = now_ns () in
    while secs_of_ns (now_ns () - t0) < pause_setup_s do
      stop (timed_setup acc make)
    done
  in
  let f = measure s ~seed ~seconds ~between in
  let setup_s = setup_figure acc in
  let rounds = f.rounds and wall = f.wall and client_cpu = f.client_cpu in
  let rss = peak_rss_mb (Some s.pid) in
  let cpu0 = children_cpu_s () in
  stop s;
  let daemon_cpu = children_cpu_s () -. cpu0 in
  let requests = rounds * (spec.observes_per_round + 1) in
  let attempted = requests + 1 in
  info "%s: %d rounds, %d requests in %.3f s; client cpu %.3f s, daemon cpu %.3f s"
    spec.name rounds requests wall client_cpu daemon_cpu;
  Printf.printf
    "client_cpu_s %.6f wall_s %.6f daemon_cpu_s %.6f host_steal_s %.2f rounds %d\n"
    client_cpu wall daemon_cpu f.steal_s rounds;
  if not traced then
    untraced attempted
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" f.rate;
        m "latency_p50_ms" "ms" f.p50;
        m "latency_p99_ms" "ms" f.p99;
        m "verdict_p50_ms" "ms" f.verdict_p50;
        m "peak_rss_mb" "MB" rss;
      ]
  else begin
    let dir = tmp_dir () in
    let corpus =
      Filename.concat dir (Printf.sprintf "%s-%d.req" spec.name (Unix.getpid ()))
    in
    let out_u = corpus ^ ".out0" and out_t = corpus ^ ".out1" in
    let nreq = write_corpus spec ~seed corpus in
    (* untraced, traced, untraced again: the faster untraced pass is the
       baseline, so first-pass warm-up does not read as negative overhead *)
    let plain = replay_pass ~traced:false ~corpus ~out_path:out_u in
    let traced = replay_pass ~traced:true ~corpus ~out_path:out_t in
    let again = replay_pass ~traced:false ~corpus ~out_path:out_u in
    let plain = if again.wall_s < plain.wall_s then again else plain in
    let read f = In_channel.with_open_bin f In_channel.input_all in
    let o_u = read out_u and o_t = read out_t in
    check (String.equal o_u o_t) "traced replay output differs from untraced";
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' o_u) in
    check (List.length lines = nreq) "replay answered %d of %d requests"
      (List.length lines) nreq;
    (match List.rev lines with
    | last :: _ ->
        check
          (match Jsonl.parse last with
          | Ok j ->
              field j "verdict" = Some (Jsonl.Str (Verdict.to_string spec.expect))
          | Error _ -> false)
          "replay final verdict %s" last
    | [] -> check false "replay wrote nothing");
    List.iter Sys.remove [ corpus; out_u; out_t ];
    let reg_tr, values, verdicts, merged_alloc_mb, shards =
      registry_pass spec ~seed
    in
    let b = Pb_trace.busy traced.trace and rb = Pb_trace.busy reg_tr in
    let layers =
      List.map (fun l -> (l, b l)) [ "netio.reader"; "batch.push"; "batch.execute"; "write" ]
    in
    Pb_trace.write traced.trace (Filename.concat dir (spec.name ^ "-replay.spans.tsv"));
    Pb_trace.write reg_tr (Filename.concat dir (spec.name ^ "-engine.spans.tsv"));
    let st = traced.stats in
    let registry = Float.max 0. (rb "service.observe" -. rb "suffstat.observe") in
    {
      attempted;
      e2e = [];
      layers;
      traced_total = Pb_trace.total traced.trace "replay";
      overhead = traced.wall_s /. plain.wall_s;
      per_layer =
        [
          m "netio.reader.busy_s" "s" (b "netio.reader");
          m "netio.reader.bytes" "bytes" (float_of_int traced.reader_bytes);
          m "batch.push.busy_s" "s" (b "batch.push");
          m "scan.fast_hits" "count" (float_of_int st.Service.fast_hits);
          m "scan.strict_parses" "count" (float_of_int st.Service.strict_parses);
          m "write.busy_s" "s" (b "write");
          m "write.bytes" "bytes" (float_of_int traced.write_bytes);
          m "suffstat.observe.busy_s" "s" (rb "suffstat.observe");
          m "suffstat.observe.values" "count" (float_of_int values);
          m "batch.execute.busy_s" "s" (b "batch.execute");
          m "batch.count" "count" (float_of_int st.Service.batches);
          m "batch.fill_mean" "count"
            (float_of_int st.Service.requests
            /. float_of_int (max 1 st.Service.batches));
          m "service.registry.busy_s" "s" registry;
          m "service.shards" "count" (float_of_int shards);
          m "service.merged.busy_s" "s" (rb "service.merged");
          m "service.merged.alloc_mb" "MB" merged_alloc_mb;
          m "suffstat.statistic.busy_s" "s" (rb "suffstat.statistic");
          m "service.verdicts" "count" (float_of_int verdicts);
          m "service.configure.busy_s" "s" (rb "service.configure");
          m "gc.alloc_mb" "MB" plain.gc_alloc_mb;
          m "gc.major_collections" "count" (float_of_int plain.gc_major);
          m "daemon.cpu_s" "s" daemon_cpu;
          m "client.cpu_s" "s" client_cpu;
        ];
    }
  end
