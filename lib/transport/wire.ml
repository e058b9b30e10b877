(* Length-prefixed binary wire codec for every protocol message.

   Frame layout, wire v2 (all integers big-endian):

     +--------+-------+---------+-----+-------+----------------+---------+
     | len u32| 'P''2'| version | tag | flags | trace (16 B)?  | payload |
     +--------+-------+---------+-----+-------+----------------+---------+

   [len] counts the bytes after the length word (magic + version + tag +
   flags + optional trace header + payload).  [flags] bit 0 says a trace
   header follows — operation id (8 bytes) then parent span id (8
   bytes) — and bit 1 carries the head-sampling decision, so a relay
   can propagate trace context without re-hashing the op id.  v2 is the
   only version: every node and aggregator runs the same binary, so a
   frame of any other version is an [Error].  Tags 4-8 and 14-18 belong
   to retired message kinds and decode to [Error] like any unknown tag.

   Integers in payloads are 8-byte two's complement (OCaml's 63-bit ints
   round-trip exactly); strings are u32-length-prefixed bytes; lists are
   u32-count-prefixed elements.  Decoding never raises: every malformed
   input — bad magic, unknown version or tag, bad flag bits, truncated
   payload or trace header, oversized frame — comes back as [Error]. *)

let version = 2

let magic0 = 'P'
let magic1 = '2'

(* Frames larger than this are rejected as corruption rather than
   trusted as an allocation size. *)
let max_body = 16 * 1024 * 1024

(* Cross-process trace context: the operation id the frame belongs to,
   the sender-side span that caused it (the receiver's parent), and the
   head-sampling bit.  [tc_parent = -1] means "no causal parent" (the
   receiver hangs its span off the op root it knows, if any). *)
type trace_ctx = { tc_op : int; tc_parent : int; tc_sampled : bool }

type msg =
  | Hello of { node : int; p_id : int }
  | Ping of { nonce : int }
  | Pong of { nonce : int }
  | Insert of {
      op : int;
      origin : int;
      route_id : int;
      key : string;
      value : string;
      hops : int;
    }
  | Insert_ack of { op : int; holder : int; hops : int }
  | Lookup of {
      op : int;
      origin : int;
      route_id : int;
      key : string;
      ttl : int;
      hops : int;
    }
  | Found of { op : int; key : string; value : string; holder : int; hops : int }
  | Not_found of { op : int; key : string; hops : int }
  | Tracker_announce of { host : int; p_id : int; port : int }
  | Tracker_peers of { peers : (int * int * int) list }
  | Client_insert of { req : int; key : string; value : string }
  | Client_lookup of { req : int; key : string }
  | Client_reply of {
      req : int;
      found : bool;
      value : string;
      holder : int;
      hops : int;
    }
  | Status_request of { req : int }
  | Status of {
      req : int;
      node : int;
      ready : bool;
      store : int;
      violations : int;
    }
  | Shutdown
  | Scrape_request of { req : int; port : int; spans : bool }
      (** poll one node's registry snapshot; [port] is where the scraper
          listens (so an aggregator outside the ring's address book can
          be dialled back), [spans] asks for retained chrome span events
          in the snapshot *)
  | Scrape_reply of { req : int; node : int; snapshot : string }
      (** the node's serialized {!P2p_obs.Scrape} snapshot (JSON) *)

let tag_of = function
  | Hello _ -> 1
  | Ping _ -> 2
  | Pong _ -> 3
  | Insert _ -> 9
  | Insert_ack _ -> 10
  | Lookup _ -> 11
  | Found _ -> 12
  | Not_found _ -> 13
  | Tracker_announce _ -> 19
  | Tracker_peers _ -> 20
  | Client_insert _ -> 21
  | Client_lookup _ -> 22
  | Client_reply _ -> 23
  | Status_request _ -> 24
  | Status _ -> 25
  | Shutdown -> 26
  | Scrape_request _ -> 27
  | Scrape_reply _ -> 28

let tag_name = function
  | Hello _ -> "hello"
  | Ping _ -> "ping"
  | Pong _ -> "pong"
  | Insert _ -> "insert"
  | Insert_ack _ -> "insert_ack"
  | Lookup _ -> "lookup"
  | Found _ -> "found"
  | Not_found _ -> "not_found"
  | Tracker_announce _ -> "tracker_announce"
  | Tracker_peers _ -> "tracker_peers"
  | Client_insert _ -> "client_insert"
  | Client_lookup _ -> "client_lookup"
  | Client_reply _ -> "client_reply"
  | Status_request _ -> "status_request"
  | Status _ -> "status"
  | Shutdown -> "shutdown"
  | Scrape_request _ -> "scrape_request"
  | Scrape_reply _ -> "scrape_reply"

(* --- encoding -------------------------------------------------------- *)

let put_int b v =
  Buffer.add_int64_be b (Int64.of_int v)

let put_u32 b v =
  Buffer.add_int32_be b (Int32.of_int v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let flag_trace = 0x01
let flag_sampled = 0x02

(* Bytes a frame spends on trace context: the flags byte, plus the
   16-byte trace header when context is stamped.  This is what the
   [wire/trace_bytes] stat counts. *)
let trace_overhead = function None -> 1 | Some _ -> 1 + 16

let encode_body ?trace msg =
  let b = Buffer.create 64 in
  Buffer.add_char b magic0;
  Buffer.add_char b magic1;
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (Char.chr (tag_of msg));
  (match trace with
   | None -> Buffer.add_char b '\000'
   | Some { tc_op; tc_parent; tc_sampled } ->
     Buffer.add_char b
       (Char.chr (flag_trace lor if tc_sampled then flag_sampled else 0));
     put_int b tc_op;
     put_int b tc_parent);
  (match msg with
   | Hello { node; p_id } ->
     put_int b node;
     put_int b p_id
   | Ping { nonce } | Pong { nonce } -> put_int b nonce
   | Insert { op; origin; route_id; key; value; hops } ->
     put_int b op;
     put_int b origin;
     put_int b route_id;
     put_string b key;
     put_string b value;
     put_int b hops
   | Insert_ack { op; holder; hops } ->
     put_int b op;
     put_int b holder;
     put_int b hops
   | Lookup { op; origin; route_id; key; ttl; hops } ->
     put_int b op;
     put_int b origin;
     put_int b route_id;
     put_string b key;
     put_int b ttl;
     put_int b hops
   | Found { op; key; value; holder; hops } ->
     put_int b op;
     put_string b key;
     put_string b value;
     put_int b holder;
     put_int b hops
   | Not_found { op; key; hops } ->
     put_int b op;
     put_string b key;
     put_int b hops
   | Tracker_announce { host; p_id; port } ->
     put_int b host;
     put_int b p_id;
     put_int b port
   | Tracker_peers { peers } ->
     put_u32 b (List.length peers);
     List.iter
       (fun (host, p_id, port) ->
         put_int b host;
         put_int b p_id;
         put_int b port)
       peers
   | Client_insert { req; key; value } ->
     put_int b req;
     put_string b key;
     put_string b value
   | Client_lookup { req; key } ->
     put_int b req;
     put_string b key
   | Client_reply { req; found; value; holder; hops } ->
     put_int b req;
     put_bool b found;
     put_string b value;
     put_int b holder;
     put_int b hops
   | Status_request { req } -> put_int b req
   | Status { req; node; ready; store; violations } ->
     put_int b req;
     put_int b node;
     put_bool b ready;
     put_int b store;
     put_int b violations
   | Shutdown -> ()
   | Scrape_request { req; port; spans } ->
     put_int b req;
     put_int b port;
     put_bool b spans
   | Scrape_reply { req; node; snapshot } ->
     put_int b req;
     put_int b node;
     put_string b snapshot);
  Buffer.contents b

let encode ?trace msg =
  let body = encode_body ?trace msg in
  let b = Buffer.create (4 + String.length body) in
  put_u32 b (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

(* --- decoding -------------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

exception Bad of string

let need c n =
  if c.pos + n > String.length c.data then
    raise (Bad (Printf.sprintf "truncated at byte %d (want %d more)" c.pos n))

let get_int c =
  need c 8;
  let v = Int64.to_int (String.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Bad "negative length");
  v

let get_char c =
  need c 1;
  let ch = c.data.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let get_string c =
  let n = get_u32 c in
  if n > max_body then raise (Bad "oversized string");
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_bool c =
  match get_char c with
  | '\000' -> false
  | '\001' -> true
  | ch -> raise (Bad (Printf.sprintf "bad bool byte %#x" (Char.code ch)))

let decode_payload c tag =
  match tag with
  | 1 ->
    let node = get_int c in
    let p_id = get_int c in
    Hello { node; p_id }
  | 2 -> Ping { nonce = get_int c }
  | 3 -> Pong { nonce = get_int c }
  | 9 ->
    let op = get_int c in
    let origin = get_int c in
    let route_id = get_int c in
    let key = get_string c in
    let value = get_string c in
    let hops = get_int c in
    Insert { op; origin; route_id; key; value; hops }
  | 10 ->
    let op = get_int c in
    let holder = get_int c in
    let hops = get_int c in
    Insert_ack { op; holder; hops }
  | 11 ->
    let op = get_int c in
    let origin = get_int c in
    let route_id = get_int c in
    let key = get_string c in
    let ttl = get_int c in
    let hops = get_int c in
    Lookup { op; origin; route_id; key; ttl; hops }
  | 12 ->
    let op = get_int c in
    let key = get_string c in
    let value = get_string c in
    let holder = get_int c in
    let hops = get_int c in
    Found { op; key; value; holder; hops }
  | 13 ->
    let op = get_int c in
    let key = get_string c in
    let hops = get_int c in
    Not_found { op; key; hops }
  | 19 ->
    let host = get_int c in
    let p_id = get_int c in
    let port = get_int c in
    Tracker_announce { host; p_id; port }
  | 20 ->
    let n = get_u32 c in
    if n > max_body / 24 then raise (Bad "oversized peer list");
    let peers =
      List.init n (fun _ ->
          let host = get_int c in
          let p_id = get_int c in
          let port = get_int c in
          (host, p_id, port))
    in
    Tracker_peers { peers }
  | 21 ->
    let req = get_int c in
    let key = get_string c in
    let value = get_string c in
    Client_insert { req; key; value }
  | 22 ->
    let req = get_int c in
    let key = get_string c in
    Client_lookup { req; key }
  | 23 ->
    let req = get_int c in
    let found = get_bool c in
    let value = get_string c in
    let holder = get_int c in
    let hops = get_int c in
    Client_reply { req; found; value; holder; hops }
  | 24 -> Status_request { req = get_int c }
  | 25 ->
    let req = get_int c in
    let node = get_int c in
    let ready = get_bool c in
    let store = get_int c in
    let violations = get_int c in
    Status { req; node; ready; store; violations }
  | 26 -> Shutdown
  | 27 ->
    let req = get_int c in
    let port = get_int c in
    let spans = get_bool c in
    Scrape_request { req; port; spans }
  | 28 ->
    let req = get_int c in
    let node = get_int c in
    let snapshot = get_string c in
    Scrape_reply { req; node; snapshot }
  | tag -> raise (Bad (Printf.sprintf "unknown tag %d" tag))

let decode_body body =
  let c = { data = body; pos = 0 } in
  match
    if get_char c <> magic0 || get_char c <> magic1 then raise (Bad "bad magic");
    let v = Char.code (get_char c) in
    if v <> version then raise (Bad (Printf.sprintf "unknown version %d" v));
    let tag = Char.code (get_char c) in
    let flags = Char.code (get_char c) in
    if flags land lnot (flag_trace lor flag_sampled) <> 0 then
      raise (Bad (Printf.sprintf "unknown flag bits %#x" flags));
    let trace =
      if flags land flag_trace = 0 then None
      else begin
        let tc_op = get_int c in
        let tc_parent = get_int c in
        Some { tc_op; tc_parent; tc_sampled = flags land flag_sampled <> 0 }
      end
    in
    let msg = decode_payload c tag in
    if c.pos <> String.length body then
      raise (Bad (Printf.sprintf "%d trailing bytes" (String.length body - c.pos)));
    (msg, trace)
  with
  | result -> Ok result
  | exception Bad reason -> Error reason
  | exception _ -> Error "malformed frame"

(* [decode_traced ?off buf] reads one frame starting at [off] (default
   0): [Ok (Some (msg, trace, consumed))] on a complete frame —
   [consumed] counts from [off], [trace] is the frame's trace context if
   stamped — [Ok None] when more bytes are needed, [Error] on
   corruption.  Stream readers call it in a loop, advancing [off] by
   [consumed] each time, so a backlog of buffered frames drains without
   re-copying the buffer per frame. *)
let decode_traced ?(off = 0) buf =
  let len = String.length buf - off in
  if len < 4 then Ok None
  else begin
    let body_len = Int32.to_int (String.get_int32_be buf off) in
    if body_len < 4 then Error "frame too short for header"
    else if body_len > max_body then
      Error (Printf.sprintf "frame of %d bytes exceeds cap" body_len)
    else if len < 4 + body_len then Ok None
    else
      match decode_body (String.sub buf (off + 4) body_len) with
      | Ok (msg, trace) -> Ok (Some (msg, trace, 4 + body_len))
      | Error e -> Error e
  end

(* Context-blind view of {!decode_traced} for callers that predate the
   trace header (tests, tools). *)
let decode ?off buf =
  match decode_traced ?off buf with
  | Ok None -> Ok None
  | Ok (Some (msg, _, consumed)) -> Ok (Some (msg, consumed))
  | Error e -> Error e

(* --- golden exemplars ------------------------------------------------- *)

(* One canonical value per message kind, in tag order.  The checked-in
   [test/golden/wire_v2.bin] is the concatenated encoding of this list
   (trace context stamped on the data-path messages, absent elsewhere);
   changing the codec or this list without regenerating the golden file
   fails the round-trip test. *)
let golden_exemplars =
  [
    Hello { node = 3; p_id = 0x1234_5678 };
    Ping { nonce = 42 };
    Pong { nonce = 42 };
    Insert
      {
        op = 1001;
        origin = 2;
        route_id = 0x7fff_ffff;
        key = "song/track-01";
        value = "payload bytes \x00\x01\xff";
        hops = 3;
      };
    Insert_ack { op = 1001; holder = 6; hops = 4 };
    Lookup
      {
        op = 2002;
        origin = 1;
        route_id = 0;
        key = "needle";
        ttl = 4;
        hops = 0;
      };
    Found { op = 2002; key = "needle"; value = "hay"; holder = 6; hops = 5 };
    Not_found { op = 2003; key = "missing"; hops = 7 };
    Tracker_announce { host = 0; p_id = 12345; port = 4700 };
    Tracker_peers { peers = [ (0, 10, 4700); (1, 20, 4701); (2, 30, 4702) ] };
    Client_insert { req = 1; key = "k"; value = "v" };
    Client_lookup { req = 2; key = "k" };
    Client_reply { req = 2; found = true; value = "v"; holder = 3; hops = 2 };
    Status_request { req = 9 };
    Status { req = 9; node = 4; ready = true; store = 25; violations = 0 };
    Shutdown;
    Scrape_request { req = 77; port = 4910; spans = true };
    Scrape_reply { req = 77; node = 4; snapshot = "{\"type\":\"scrape\"}" };
  ]

(* Trace contexts stamped on the golden data-path frames: one sampled,
   one relayed (non-root parent), one unsampled-but-stamped, so the
   golden bytes pin all flag combinations the encoder emits. *)
let golden_trace_exemplars =
  [
    (Lookup
       {
         op = 2002;
         origin = 1;
         route_id = 0;
         key = "needle";
         ttl = 4;
         hops = 0;
       },
     Some { tc_op = 2002; tc_parent = -1; tc_sampled = true });
    (Found { op = 2002; key = "needle"; value = "hay"; holder = 6; hops = 5 },
     Some { tc_op = 2002; tc_parent = 31; tc_sampled = true });
    (Insert
       {
         op = 1001;
         origin = 2;
         route_id = 0x7fff_ffff;
         key = "song/track-01";
         value = "payload bytes \x00\x01\xff";
         hops = 3;
       },
     Some { tc_op = 1001; tc_parent = 7; tc_sampled = false });
  ]
